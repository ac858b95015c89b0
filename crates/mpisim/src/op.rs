//! The operation vocabulary of simulated MPI programs — and the lazy
//! [`Program`] abstraction that feeds them to the engine.
//!
//! A workload compiles, per rank, to a *source* of [`Op`]s — compute chunks,
//! point-to-point messages, collectives, file I/O and section markers. Since
//! the streaming refactor a rank's program is no longer a materialized
//! `Vec<Op>`: it is an [`OpSource`], either
//!
//! * [`OpSource::Materialized`] — a pre-built op list with a cursor (kept for
//!   tests, validation fixtures and equivalence checks), or
//! * [`OpSource::Streamed`] — a boxed [`Program`] generator that yields ops
//!   on demand, one [`Program::next_op`] at a time, and can be
//!   [`Program::rewind`]-ed for repeated runs (the paper's min-of-5
//!   methodology re-runs the same job with different noise seeds).
//!
//! Workload builders implement generators with [`BlockProgram`]: a closure
//! that emits one *block* of ops (typically one timestep or solver
//! iteration) per call, so peak memory is O(np · block) instead of
//! O(total ops). Job-wide metadata that used to live beside the programs
//! (name, rank count, section table) now lives in [`JobMeta`], which the
//! profiling layers consume without ever touching the op streams.

use crate::prof::MpiKind;

/// Rank index within the job.
pub type Rank = u32;

/// Message tag (matching is FIFO per `(source, dest, tag)`).
pub type Tag = u32;

/// Index into the job's section-name table.
pub type SectionId = u16;

/// Rank-local non-blocking request handle (see [`Op::Isend`], [`Op::Irecv`],
/// [`Op::Wait`]). A handle may be reused after it has been waited on.
pub type ReqId = u32;

/// A communicator: the set of ranks participating in a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// All ranks of the job (`MPI_COMM_WORLD`).
    World,
    /// `count` ranks starting at `first`, `stride` apart — covers row and
    /// column communicators of the 2-D decompositions the workloads use.
    Strided {
        first: Rank,
        count: u32,
        stride: u32,
    },
}

impl Group {
    /// Number of member ranks (`np` = world size).
    pub fn size(&self, np: usize) -> usize {
        match self {
            Group::World => np,
            Group::Strided { count, .. } => *count as usize,
        }
    }

    /// Whether `rank` belongs to the group.
    pub fn contains(&self, rank: Rank, np: usize) -> bool {
        match self {
            Group::World => (rank as usize) < np,
            Group::Strided {
                first,
                count,
                stride,
            } => {
                let stride = (*stride).max(1);
                rank >= *first
                    && (rank - first).is_multiple_of(stride)
                    && (rank - first) / stride < *count
            }
        }
    }

    /// Iterate the member ranks without allocating.
    pub fn members(self, np: usize) -> impl Iterator<Item = Rank> {
        let (first, count, stride) = match self {
            Group::World => (0, np as u32, 1),
            Group::Strided {
                first,
                count,
                stride,
            } => (first, count, stride.max(1)),
        };
        (0..count).map(move |i| first + i * stride)
    }
}

/// One operation of a rank's program. `Copy`: every variant is a handful
/// of scalars, so workload generators can hoist an op value out of their
/// emit closures and push it by value per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Local work: a roofline chunk of `flops` floating-point operations
    /// touching `bytes` of memory traffic.
    Compute { flops: f64, bytes: f64 },
    /// Eager/rendezvous point-to-point send.
    Send { to: Rank, bytes: usize, tag: Tag },
    /// Blocking receive matching `(from, tag)` in FIFO order.
    Recv { from: Rank, bytes: usize, tag: Tag },
    /// Non-blocking send: identical wire behaviour to [`Op::Send`] (sends
    /// are already asynchronous), but completion is observed via
    /// [`Op::Wait`] on `req`, like `MPI_Isend`.
    Isend {
        to: Rank,
        bytes: usize,
        tag: Tag,
        req: ReqId,
    },
    /// Non-blocking receive: posts the match immediately and returns;
    /// [`Op::Wait`] on `req` blocks until the message has arrived. This is
    /// what lets codes overlap halo exchange with interior compute.
    Irecv {
        from: Rank,
        bytes: usize,
        tag: Tag,
        req: ReqId,
    },
    /// Complete a previously issued non-blocking operation.
    Wait { req: ReqId },
    /// Paired sendrecv with a partner (halo exchanges): both ranks
    /// synchronize, exchange `send_bytes`/`recv_bytes`, and proceed.
    /// Deadlock-free by construction, which is why the workloads use it for
    /// neighbour exchanges, exactly like real codes use `MPI_Sendrecv`.
    Exchange {
        partner: Rank,
        send_bytes: usize,
        recv_bytes: usize,
        tag: Tag,
    },
    /// A collective over the whole job (see `CollOp`).
    Coll(CollOp),
    /// A collective over a sub-communicator — e.g. the row/column
    /// communicators of a 2-D processor grid. Every member must issue the
    /// same group collectives in the same order.
    GroupColl { group: Group, op: CollOp },
    /// Read `bytes` from the shared filesystem.
    FileRead { bytes: u64 },
    /// Write `bytes` to the shared filesystem.
    FileWrite { bytes: u64 },
    /// Coordinated checkpoint: all ranks synchronize (barrier), then each
    /// writes `bytes` of state to the shared filesystem. On a fatal fault
    /// the engine rewinds every rank's program and fast-forwards past the
    /// last globally completed checkpoint, re-charging the restore I/O —
    /// which is exactly how coordinated checkpoint/restart libraries
    /// (BLCR, DMTCP, SCR) behave. Every rank must issue the same number of
    /// checkpoints at consistent cut points (no pt2pt straddling the cut).
    Checkpoint { bytes: u64 },
    /// ABFT verification cut: all ranks synchronize (barrier), then each
    /// runs `flops` of checksum/drift checking over its live state. Any
    /// silent corruption that landed before the cut is detected here (or
    /// counted as undetected if its severity is below the detector's
    /// threshold), and detection triggers the configured
    /// `RecoveryStrategy`. A completed clean verify becomes the rollback
    /// target for `AbftRollback`/`ShrinkSpare`; `state_bytes` is the
    /// per-rank live state a spare must re-fetch on a shrink recovery.
    /// Like checkpoints, every rank must issue the same verifies at
    /// consistent cut points.
    Verify { flops: f64, state_bytes: u64 },
    /// Enter a named profiling section (IPM-style region).
    SectionEnter(SectionId),
    /// Leave a named profiling section.
    SectionExit(SectionId),
}

/// Collective operations with their per-rank payload sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollOp {
    /// Dissemination barrier.
    Barrier,
    /// Binomial-tree broadcast of `bytes` from `root`.
    Bcast { root: Rank, bytes: usize },
    /// Binomial-tree reduction of `bytes` to `root`.
    Reduce { root: Rank, bytes: usize },
    /// Recursive-doubling allreduce of `bytes` (the 4-byte flavour of this
    /// is what dominates the Chaste KSp section).
    Allreduce { bytes: usize },
    /// Recursive-doubling allgather; every rank contributes `bytes_per_rank`.
    Allgather { bytes_per_rank: usize },
    /// Pairwise-exchange all-to-all; every rank sends `bytes_per_pair` to
    /// every other rank (FT's transpose, IS's key shuffle).
    Alltoall { bytes_per_pair: usize },
    /// Binomial gather of `bytes_per_rank` from every rank to `root`.
    Gather { root: Rank, bytes_per_rank: usize },
    /// Binomial scatter of `bytes_per_rank` from `root` to every rank.
    Scatter { root: Rank, bytes_per_rank: usize },
}

impl CollOp {
    /// The MPI call this collective is profiled as.
    pub fn kind(&self) -> MpiKind {
        match self {
            CollOp::Barrier => MpiKind::Barrier,
            CollOp::Bcast { .. } => MpiKind::Bcast,
            CollOp::Reduce { .. } => MpiKind::Reduce,
            CollOp::Allreduce { .. } => MpiKind::Allreduce,
            CollOp::Allgather { .. } => MpiKind::Allgather,
            CollOp::Alltoall { .. } => MpiKind::Alltoall,
            CollOp::Gather { .. } => MpiKind::Gather,
            CollOp::Scatter { .. } => MpiKind::Scatter,
        }
    }

    /// Short MPI-style name for reports.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Bytes this collective moves per rank (used for histogram bucketing).
    pub fn bytes_per_rank(&self, np: usize) -> u64 {
        match *self {
            CollOp::Barrier => 0,
            CollOp::Bcast { bytes, .. }
            | CollOp::Reduce { bytes, .. }
            | CollOp::Allreduce { bytes } => bytes as u64,
            CollOp::Allgather { bytes_per_rank }
            | CollOp::Gather { bytes_per_rank, .. }
            | CollOp::Scatter { bytes_per_rank, .. } => bytes_per_rank as u64,
            CollOp::Alltoall { bytes_per_pair } => {
                bytes_per_pair as u64 * np.saturating_sub(1) as u64
            }
        }
    }
}

/// A lazy per-rank op source. The engine pulls ops one at a time with
/// [`Program::next_op`]; [`Program::rewind`] restores the start so the same
/// job can be re-run (repeats differ only in the noise seed).
///
/// Implementations must be deterministic: after a rewind, the same op
/// sequence must be produced again.
pub trait Program: Send {
    /// Produce the next op, or `None` when the program is exhausted.
    fn next_op(&mut self) -> Option<Op>;

    /// Reset to the beginning of the op sequence.
    fn rewind(&mut self);
}

/// A [`Program`] built from a block-emitting closure.
///
/// The closure is called with a block index `k` (0, 1, 2, ...) and a scratch
/// buffer; it appends block `k`'s ops to the buffer and returns `true`, or
/// returns `false` (leaving the buffer empty) when `k` is past the end.
/// Workloads use one block per timestep/iteration plus prologue/epilogue
/// blocks, so only one block per rank is resident at a time.
pub struct BlockProgram<F> {
    emit: F,
    block: usize,
    buf: Vec<Op>,
    pos: usize,
}

impl<F> BlockProgram<F>
where
    F: FnMut(usize, &mut Vec<Op>) -> bool + Send,
{
    pub fn new(emit: F) -> Self {
        BlockProgram {
            emit,
            block: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl<F> Program for BlockProgram<F>
where
    F: FnMut(usize, &mut Vec<Op>) -> bool + Send,
{
    fn next_op(&mut self) -> Option<Op> {
        loop {
            if self.pos < self.buf.len() {
                let op = self.buf[self.pos];
                self.pos += 1;
                return Some(op);
            }
            self.buf.clear();
            self.pos = 0;
            if !(self.emit)(self.block, &mut self.buf) {
                return None;
            }
            self.block += 1;
        }
    }

    fn rewind(&mut self) {
        self.block = 0;
        self.buf.clear();
        self.pos = 0;
    }
}

/// A [`Program`] whose op stream is `prologue ++ body × blocks ++ epilogue`,
/// with all three segments generated once at construction and replayed from
/// cached buffers.
///
/// Most iterative workloads emit an *identical* op block every timestep —
/// only the block count varies with the problem class. Driving those through
/// [`BlockProgram`] re-runs the emitting closure (and re-fills the scratch
/// buffer) once per iteration per run, which dominates the engine's own cost
/// at high rank counts. Workloads whose blocks genuinely depend on the
/// iteration index (LU's rotating tag base, MetUM's first-timestep sections)
/// must keep [`BlockProgram`].
///
/// Segments are stored *dictionary-encoded*: the distinct [`Op`] values go
/// into a small per-program table and the segments hold `u16` indices into
/// it. A program block repeats a handful of op shapes (one compute chunk,
/// a few exchange patterns, an allreduce), so the index stream is ~16×
/// smaller than a `Vec<Op>` — at high rank counts the op streams of every
/// rank cycle through cache each iteration, and that footprint difference
/// is directly visible in engine throughput.
pub struct CyclicProgram {
    /// Distinct ops, in first-appearance order.
    dict: Vec<Op>,
    prologue: Vec<u16>,
    body: Vec<u16>,
    epilogue: Vec<u16>,
    blocks: usize,
    /// 0 = prologue, 1 = body repeats, 2 = epilogue, 3 = done.
    seg: u8,
    /// Completed body repetitions.
    k: usize,
    pos: usize,
}

impl CyclicProgram {
    /// `build_body` fills one iteration's ops; the stream repeats it
    /// `blocks` times.
    ///
    /// # Panics
    ///
    /// If the program's segments hold more than 65,534 distinct op values
    /// between them: the dictionary is indexed by `u16`. Workload blocks
    /// repeat a handful of op shapes, far below the limit.
    pub fn new(blocks: usize, build_body: impl FnOnce(&mut Vec<Op>)) -> Self {
        let mut p = CyclicProgram {
            dict: Vec::new(),
            prologue: Vec::new(),
            body: Vec::new(),
            epilogue: Vec::new(),
            blocks,
            seg: 0,
            k: 0,
            pos: 0,
        };
        let mut ops = Vec::new();
        build_body(&mut ops);
        p.body = p.intern(&ops);
        p
    }

    /// Ops emitted once before the first body repetition.
    ///
    /// # Panics
    ///
    /// If the program's segments hold more than 65,534 distinct op values
    /// between them: the dictionary is indexed by `u16`. Workload blocks
    /// repeat a handful of op shapes, far below the limit.
    pub fn with_prologue(mut self, build: impl FnOnce(&mut Vec<Op>)) -> Self {
        let mut ops = Vec::new();
        build(&mut ops);
        self.prologue = self.intern(&ops);
        self
    }

    /// Ops emitted once after the last body repetition.
    ///
    /// # Panics
    ///
    /// If the program's segments hold more than 65,534 distinct op values
    /// between them: the dictionary is indexed by `u16`. Workload blocks
    /// repeat a handful of op shapes, far below the limit.
    pub fn with_epilogue(mut self, build: impl FnOnce(&mut Vec<Op>)) -> Self {
        let mut ops = Vec::new();
        build(&mut ops);
        self.epilogue = self.intern(&ops);
        self
    }

    /// Map `ops` to dictionary indices, growing the dictionary with any op
    /// value not seen before. Linear probing is fine: dictionaries stay
    /// tiny (a block re-uses the same few op shapes), and this runs once
    /// per program at build time.
    fn intern(&mut self, ops: &[Op]) -> Vec<u16> {
        ops.iter()
            .map(|op| {
                if let Some(i) = self.dict.iter().position(|d| d == op) {
                    return i as u16;
                }
                assert!(
                    self.dict.len() < u16::MAX as usize,
                    "CyclicProgram dictionary overflow: >65534 distinct ops in one rank's block"
                );
                self.dict.push(*op);
                (self.dict.len() - 1) as u16
            })
            .collect()
    }
}

impl CyclicProgram {
    /// Advance `(seg, pos)` past exhausted segments so that, on return, the
    /// cursor either points at a real op or `seg == 3` (done). Keeping this
    /// invariant lets `peek` be a plain bounds-checked index.
    fn normalize(&mut self) {
        loop {
            let len = match self.seg {
                0 => self.prologue.len(),
                1 => self.body.len(),
                2 => self.epilogue.len(),
                _ => return,
            };
            if self.pos < len {
                return;
            }
            self.pos = 0;
            match self.seg {
                0 => {
                    self.seg = if self.blocks > 0 && !self.body.is_empty() {
                        1
                    } else {
                        2
                    };
                }
                1 => {
                    self.k += 1;
                    if self.k >= self.blocks {
                        self.seg = 2;
                    }
                }
                _ => self.seg = 3,
            }
        }
    }

    /// The op `advance` would return, without consuming it.
    #[inline]
    fn peek(&mut self) -> Option<&Op> {
        self.normalize();
        let idx = match self.seg {
            0 => self.prologue[self.pos],
            1 => self.body[self.pos],
            2 => self.epilogue[self.pos],
            _ => return None,
        };
        Some(&self.dict[idx as usize])
    }

    /// Produce the next op and move the cursor forward.
    #[inline]
    fn advance(&mut self) -> Option<Op> {
        self.normalize();
        let idx = match self.seg {
            0 => self.prologue[self.pos],
            1 => self.body[self.pos],
            2 => self.epilogue[self.pos],
            _ => return None,
        };
        self.pos += 1;
        Some(self.dict[idx as usize])
    }
}

impl Program for CyclicProgram {
    fn next_op(&mut self) -> Option<Op> {
        self.advance()
    }

    fn rewind(&mut self) {
        self.seg = 0;
        self.k = 0;
        self.pos = 0;
    }
}

/// One rank's op source: either a materialized list or a lazy generator.
pub enum OpSource {
    /// Pre-built op list with a cursor. Used by tests, validation fixtures
    /// and the equivalence suite; also what [`JobSpec::from_programs`]
    /// produces.
    Materialized { ops: Vec<Op>, pos: usize },
    /// A lazy generator; ops are produced on demand. `peeked` holds the
    /// one-op lookahead [`OpSource::peek_op`] may have pulled from the
    /// generator before the engine consumed it.
    Streamed {
        p: Box<dyn Program>,
        peeked: Option<Op>,
    },
    /// A [`CyclicProgram`] held directly (no boxing, no virtual dispatch).
    /// The engine pulls ops from these on every scheduler step; going
    /// through the enum lets `next_op`/`peek_op` inline down to an indexed
    /// read of the cached segment buffers.
    Cyclic(CyclicProgram),
}

impl OpSource {
    /// Wrap a pre-built op list.
    pub fn materialized(ops: Vec<Op>) -> Self {
        OpSource::Materialized { ops, pos: 0 }
    }

    /// Wrap a lazy generator.
    pub fn streamed(p: impl Program + 'static) -> Self {
        OpSource::Streamed {
            p: Box::new(p),
            peeked: None,
        }
    }

    /// Wrap a [`CyclicProgram`] without boxing it.
    pub fn cyclic(p: CyclicProgram) -> Self {
        OpSource::Cyclic(p)
    }

    /// Pull the next op.
    pub fn next_op(&mut self) -> Option<Op> {
        match self {
            OpSource::Materialized { ops, pos } => {
                let op = ops.get(*pos).cloned()?;
                *pos += 1;
                Some(op)
            }
            OpSource::Streamed { p, peeked } => peeked.take().or_else(|| p.next_op()),
            OpSource::Cyclic(p) => p.advance(),
        }
    }

    /// Look at the next op without consuming it. The engine's compute-op
    /// fusion uses this to decide whether a run of `Compute` ops
    /// continues; the returned reference observes exactly the op the next
    /// [`OpSource::next_op`] will yield.
    pub fn peek_op(&mut self) -> Option<&Op> {
        match self {
            OpSource::Materialized { ops, pos } => ops.get(*pos),
            OpSource::Streamed { p, peeked } => {
                if peeked.is_none() {
                    *peeked = p.next_op();
                }
                peeked.as_ref()
            }
            OpSource::Cyclic(p) => p.peek(),
        }
    }

    /// Reset to the beginning.
    pub fn rewind(&mut self) {
        match self {
            OpSource::Materialized { pos, .. } => *pos = 0,
            OpSource::Streamed { p, peeked } => {
                *peeked = None;
                p.rewind();
            }
            OpSource::Cyclic(p) => Program::rewind(p),
        }
    }

    /// Whether this source generates ops lazily.
    pub fn is_streamed(&self) -> bool {
        !matches!(self, OpSource::Materialized { .. })
    }

    /// Drain the remaining ops into a `Vec` and rewind.
    fn drain_to_vec(&mut self) -> Vec<Op> {
        let mut out = Vec::new();
        while let Some(op) = self.next_op() {
            out.push(op);
        }
        self.rewind();
        out
    }
}

impl std::fmt::Debug for OpSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpSource::Materialized { ops, pos } => f
                .debug_struct("Materialized")
                .field("len", &ops.len())
                .field("pos", pos)
                .finish(),
            OpSource::Streamed { .. } => f.write_str("Streamed(..)"),
            OpSource::Cyclic(..) => f.write_str("Cyclic(..)"),
        }
    }
}

/// Job-wide metadata, separate from the op streams. The profiling layers
/// (`sim-ipm`) consume only this — they never need the ops themselves.
/// The name is an `Arc<str>` so results and reports share it by refcount
/// instead of re-allocating a `String` per run.
#[derive(Debug, Clone)]
pub struct JobMeta {
    /// Workload name for reports ("cg.B", "metum.n320l70", ...).
    pub name: std::sync::Arc<str>,
    /// Number of ranks.
    pub np: usize,
    /// Names of profiling sections, indexed by [`SectionId`].
    pub section_names: Vec<&'static str>,
}

/// A complete job: metadata plus one op source per rank.
#[derive(Debug)]
pub struct JobSpec {
    pub meta: JobMeta,
    /// `sources[r]` is rank `r`'s op source.
    pub sources: Vec<OpSource>,
    /// Whether [`JobSpec::validate`] has already succeeded. Programs are
    /// deterministic (rewind reproduces the same op sequence), so a job
    /// that validated once stays valid across repeated runs — re-walking
    /// every streamed trace per run would double the generation cost of
    /// the paper's min-of-N methodology for nothing.
    validated: bool,
}

impl JobSpec {
    /// Build a job from materialized per-rank op lists (tests, fixtures,
    /// equivalence twins).
    pub fn from_programs(
        name: impl Into<std::sync::Arc<str>>,
        programs: Vec<Vec<Op>>,
        section_names: Vec<&'static str>,
    ) -> Self {
        let np = programs.len();
        JobSpec {
            meta: JobMeta {
                name: name.into(),
                np,
                section_names,
            },
            sources: programs.into_iter().map(OpSource::materialized).collect(),
            validated: false,
        }
    }

    /// Build a job from lazy per-rank sources (the default path for
    /// workload builders).
    pub fn from_sources(
        name: impl Into<std::sync::Arc<str>>,
        sources: Vec<OpSource>,
        section_names: Vec<&'static str>,
    ) -> Self {
        let np = sources.len();
        JobSpec {
            meta: JobMeta {
                name: name.into(),
                np,
                section_names,
            },
            sources,
            validated: false,
        }
    }

    /// Number of ranks.
    pub fn np(&self) -> usize {
        self.meta.np
    }

    /// Rewind every rank's source to the start of its program.
    pub fn rewind(&mut self) {
        for s in &mut self.sources {
            s.rewind();
        }
    }

    /// Whether every rank's source is lazy (no full trace in memory).
    pub fn is_fully_streamed(&self) -> bool {
        self.sources.iter().all(|s| s.is_streamed())
    }

    /// Total ops across all ranks, counted by streaming through every
    /// source in O(1) extra memory (sources are rewound afterwards).
    pub fn total_ops(&mut self) -> u64 {
        let mut n = 0u64;
        for s in &mut self.sources {
            s.rewind();
            while s.next_op().is_some() {
                n += 1;
            }
            s.rewind();
        }
        n
    }

    /// Materialize rank `r`'s program into a `Vec` (rewinds the source).
    /// For tests that inspect op structure; O(rank ops) memory.
    pub fn materialize_rank(&mut self, r: usize) -> Vec<Op> {
        self.sources[r].rewind();
        self.sources[r].drain_to_vec()
    }

    /// Materialize every rank's program (rewinds all sources). Used by the
    /// streamed-vs-materialized equivalence suite; O(total ops) memory —
    /// exactly the cost the streaming path avoids.
    pub fn materialized_copy(&mut self) -> Vec<Vec<Op>> {
        self.rewind();
        self.sources.iter_mut().map(|s| s.drain_to_vec()).collect()
    }

    /// Validate structural well-formedness:
    /// * every `Send` has a matching `Recv` (and vice versa) per channel,
    /// * every `Exchange` is mirrored by the partner with swapped sizes,
    /// * all ranks issue the same number of collectives, in the same kinds,
    /// * section enters/exits balance per rank,
    /// * targets are in range.
    ///
    /// Validation *streams*: each rank's source is walked op-by-op and
    /// rewound; no rank's program is ever materialized. Memory is bounded
    /// by the number of distinct channels and collective sequences, not by
    /// trace length.
    pub fn validate(&mut self) -> Result<(), String> {
        if self.validated {
            return Ok(());
        }
        use sim_des::{FxHashMap, FxHashSet};
        let np = self.meta.np as u32;
        let n_sections = self.meta.section_names.len();
        let mut sends: FxHashMap<(u32, u32, Tag), usize> = FxHashMap::default();
        let mut recvs: FxHashMap<(u32, u32, Tag), usize> = FxHashMap::default();
        let mut exchanges: FxHashMap<(u32, u32, Tag), i64> = FxHashMap::default();
        let mut coll_seqs: Vec<Vec<(&'static str, Group, &'static str)>> =
            Vec::with_capacity(self.sources.len());
        for (r, source) in self.sources.iter_mut().enumerate() {
            let r = r as u32;
            let mut colls: Vec<(&str, Group, &str)> = Vec::new();
            let mut depth: i32 = 0;
            let mut open_reqs: FxHashSet<u32> = Default::default();
            source.rewind();
            while let Some(op) = source.next_op() {
                match &op {
                    Op::Isend { to, tag, req, .. } => {
                        if *to >= np {
                            return Err(format!("rank {r}: isend to out-of-range rank {to}"));
                        }
                        if *to == r {
                            return Err(format!("rank {r}: isend to self"));
                        }
                        if !open_reqs.insert(*req) {
                            return Err(format!("rank {r}: request {req} reused before wait"));
                        }
                        *sends.entry((r, *to, *tag)).or_default() += 1;
                    }
                    Op::Irecv { from, tag, req, .. } => {
                        if *from >= np {
                            return Err(format!("rank {r}: irecv from out-of-range rank {from}"));
                        }
                        if !open_reqs.insert(*req) {
                            return Err(format!("rank {r}: request {req} reused before wait"));
                        }
                        *recvs.entry((*from, r, *tag)).or_default() += 1;
                    }
                    Op::Wait { req } => {
                        if !open_reqs.remove(req) {
                            return Err(format!("rank {r}: wait on unknown request {req}"));
                        }
                    }
                    Op::Send { to, tag, .. } => {
                        if *to >= np {
                            return Err(format!("rank {r}: send to out-of-range rank {to}"));
                        }
                        if *to == r {
                            return Err(format!("rank {r}: send to self"));
                        }
                        *sends.entry((r, *to, *tag)).or_default() += 1;
                    }
                    Op::Recv { from, tag, .. } => {
                        if *from >= np {
                            return Err(format!("rank {r}: recv from out-of-range rank {from}"));
                        }
                        *recvs.entry((*from, r, *tag)).or_default() += 1;
                    }
                    Op::Exchange { partner, tag, .. } => {
                        if *partner >= np {
                            return Err(format!("rank {r}: exchange with out-of-range {partner}"));
                        }
                        if *partner == r {
                            return Err(format!("rank {r}: exchange with self"));
                        }
                        let key = (r.min(*partner), r.max(*partner), *tag);
                        *exchanges.entry(key).or_default() += if r < *partner { 1 } else { -1 };
                    }
                    Op::Coll(c) => colls.push(("world", Group::World, c.name())),
                    // A checkpoint is a world-synchronized cut: validating
                    // it as a world "collective" enforces that every rank
                    // issues the same number of checkpoints in the same
                    // order relative to real collectives.
                    Op::Checkpoint { .. } => colls.push(("world", Group::World, "checkpoint")),
                    // Verification cuts are world-synchronized for the same
                    // reason.
                    Op::Verify { .. } => colls.push(("world", Group::World, "verify")),
                    Op::GroupColl { group, op } => {
                        if !group.contains(r, np as usize) {
                            return Err(format!(
                                "rank {r}: group collective on a group it is not in"
                            ));
                        }
                        if let Group::Strided {
                            first,
                            count,
                            stride,
                        } = group
                        {
                            let last = *first as u64
                                + (count.saturating_sub(1) as u64) * (*stride).max(1) as u64;
                            if last >= np as u64 {
                                return Err(format!(
                                    "rank {r}: group extends past rank {last} >= np {np}"
                                ));
                            }
                        }
                        colls.push(("group", *group, op.name()));
                    }
                    Op::SectionEnter(id) => {
                        if *id as usize >= n_sections {
                            return Err(format!("rank {r}: unknown section id {id}"));
                        }
                        depth += 1;
                    }
                    Op::SectionExit(_) => {
                        depth -= 1;
                        if depth < 0 {
                            return Err(format!("rank {r}: section exit without enter"));
                        }
                    }
                    Op::Compute { flops, bytes } => {
                        if !flops.is_finite() || !bytes.is_finite() || *flops < 0.0 || *bytes < 0.0
                        {
                            return Err(format!("rank {r}: bad compute chunk {flops}/{bytes}"));
                        }
                    }
                    Op::FileRead { .. } | Op::FileWrite { .. } => {}
                }
            }
            source.rewind();
            if depth != 0 {
                return Err(format!("rank {r}: {depth} unclosed sections"));
            }
            if !open_reqs.is_empty() {
                return Err(format!(
                    "rank {r}: {} request(s) never waited on",
                    open_reqs.len()
                ));
            }
            coll_seqs.push(colls);
        }
        for (key, n) in &sends {
            let m = recvs.get(key).copied().unwrap_or(0);
            if *n != m {
                return Err(format!("channel {key:?}: {n} sends vs {m} recvs"));
            }
        }
        for (key, m) in &recvs {
            if !sends.contains_key(key) {
                return Err(format!("channel {key:?}: {m} recvs with no send"));
            }
        }
        for (key, bal) in &exchanges {
            if *bal != 0 {
                return Err(format!("exchange {key:?}: unbalanced by {bal}"));
            }
        }
        // Per communicator, every member must issue the same sequence.
        let mut by_group: FxHashMap<Group, Vec<(u32, Vec<&str>)>> = FxHashMap::default();
        for (r, seq) in coll_seqs.iter().enumerate() {
            let mut per_rank: FxHashMap<Group, Vec<&str>> = FxHashMap::default();
            for (_, g, name) in seq.iter() {
                per_rank.entry(*g).or_default().push(name);
            }
            for (g, names) in per_rank {
                by_group.entry(g).or_default().push((r as u32, names));
            }
        }
        for (g, seqs) in &by_group {
            let expected_members = g.size(self.meta.np);
            if seqs.len() != expected_members {
                return Err(format!(
                    "group {g:?}: {} rank(s) issued its collectives but it has {expected_members} members",
                    seqs.len()
                ));
            }
            for (r, names) in &seqs[1..] {
                if *names != seqs[0].1 {
                    return Err(format!(
                        "rank {r} issues a different collective sequence on {g:?} than rank {}",
                        seqs[0].0
                    ));
                }
            }
        }
        self.validated = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(programs: Vec<Vec<Op>>) -> JobSpec {
        JobSpec::from_programs("test", programs, vec!["main"])
    }

    #[test]
    fn validate_accepts_matched_pt2pt() {
        let mut j = job(vec![
            vec![Op::Send {
                to: 1,
                bytes: 8,
                tag: 0,
            }],
            vec![Op::Recv {
                from: 0,
                bytes: 8,
                tag: 0,
            }],
        ]);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unmatched_send() {
        let mut j = job(vec![
            vec![Op::Send {
                to: 1,
                bytes: 8,
                tag: 0,
            }],
            vec![],
        ]);
        assert!(j.validate().is_err());
    }

    #[test]
    fn validate_rejects_recv_without_send() {
        let mut j = job(vec![
            vec![],
            vec![Op::Recv {
                from: 0,
                bytes: 8,
                tag: 0,
            }],
        ]);
        assert!(j.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_send_and_out_of_range() {
        let mut j = job(vec![vec![Op::Send {
            to: 0,
            bytes: 8,
            tag: 0,
        }]]);
        assert!(j.validate().is_err());
        let mut j = job(vec![vec![Op::Send {
            to: 9,
            bytes: 8,
            tag: 0,
        }]]);
        assert!(j.validate().is_err());
    }

    #[test]
    fn validate_requires_mirrored_exchange() {
        let mut ok = job(vec![
            vec![Op::Exchange {
                partner: 1,
                send_bytes: 8,
                recv_bytes: 16,
                tag: 7,
            }],
            vec![Op::Exchange {
                partner: 0,
                send_bytes: 16,
                recv_bytes: 8,
                tag: 7,
            }],
        ]);
        assert!(ok.validate().is_ok());
        let mut bad = job(vec![
            vec![Op::Exchange {
                partner: 1,
                send_bytes: 8,
                recv_bytes: 8,
                tag: 7,
            }],
            vec![],
        ]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_requires_identical_collective_sequences() {
        let mut ok = job(vec![
            vec![Op::Coll(CollOp::Allreduce { bytes: 8 })],
            vec![Op::Coll(CollOp::Allreduce { bytes: 8 })],
        ]);
        assert!(ok.validate().is_ok());
        let mut bad = job(vec![
            vec![Op::Coll(CollOp::Allreduce { bytes: 8 })],
            vec![Op::Coll(CollOp::Barrier)],
        ]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_requires_balanced_sections() {
        let mut bad = job(vec![vec![Op::SectionEnter(0)]]);
        assert!(bad.validate().is_err());
        let mut bad2 = job(vec![vec![Op::SectionExit(0)]]);
        assert!(bad2.validate().is_err());
        let mut ok = job(vec![vec![Op::SectionEnter(0), Op::SectionExit(0)]]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn alltoall_bytes_per_rank_counts_peers() {
        let c = CollOp::Alltoall {
            bytes_per_pair: 100,
        };
        assert_eq!(c.bytes_per_rank(5), 400);
        assert_eq!(CollOp::Barrier.bytes_per_rank(5), 0);
    }

    #[test]
    fn group_members_iterate_without_allocating() {
        let g = Group::Strided {
            first: 2,
            count: 3,
            stride: 4,
        };
        assert_eq!(g.members(16).collect::<Vec<_>>(), vec![2, 6, 10]);
        assert_eq!(Group::World.members(3).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn block_program_yields_blocks_in_order_and_rewinds() {
        let mut p = BlockProgram::new(|k, buf: &mut Vec<Op>| {
            if k >= 3 {
                return false;
            }
            buf.push(Op::Compute {
                flops: k as f64,
                bytes: 0.0,
            });
            if k == 1 {
                buf.push(Op::Coll(CollOp::Barrier));
            }
            true
        });
        let first: Vec<Op> = std::iter::from_fn(|| p.next_op()).collect();
        assert_eq!(first.len(), 4);
        assert_eq!(first[2], Op::Coll(CollOp::Barrier));
        p.rewind();
        let second: Vec<Op> = std::iter::from_fn(|| p.next_op()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn block_program_skips_empty_blocks() {
        let mut p = BlockProgram::new(|k, buf: &mut Vec<Op>| {
            if k >= 4 {
                return false;
            }
            if k == 2 {
                buf.push(Op::Coll(CollOp::Barrier));
            }
            true
        });
        let ops: Vec<Op> = std::iter::from_fn(|| p.next_op()).collect();
        assert_eq!(ops, vec![Op::Coll(CollOp::Barrier)]);
    }

    #[test]
    fn peek_is_transparent_on_both_source_kinds() {
        let ops = vec![
            Op::Compute {
                flops: 1.0,
                bytes: 0.0,
            },
            Op::Coll(CollOp::Barrier),
            Op::Compute {
                flops: 2.0,
                bytes: 0.0,
            },
        ];
        let mk_streamed = || {
            let blocks = [
                vec![
                    Op::Compute {
                        flops: 1.0,
                        bytes: 0.0,
                    },
                    Op::Coll(CollOp::Barrier),
                ],
                vec![Op::Compute {
                    flops: 2.0,
                    bytes: 0.0,
                }],
            ];
            OpSource::streamed(BlockProgram::new(move |k, buf: &mut Vec<Op>| {
                if k >= blocks.len() {
                    return false;
                }
                buf.extend(blocks[k].iter().cloned());
                true
            }))
        };
        for mut src in [OpSource::materialized(ops.clone()), mk_streamed()] {
            // Repeated peeks are idempotent and never advance the cursor.
            assert_eq!(src.peek_op(), Some(&ops[0]));
            assert_eq!(src.peek_op(), Some(&ops[0]));
            for expect in &ops {
                assert_eq!(src.peek_op(), Some(expect));
                assert_eq!(src.next_op().as_ref(), Some(expect));
            }
            assert_eq!(src.peek_op(), None);
            assert_eq!(src.next_op(), None);
            // Rewind discards any buffered lookahead.
            src.rewind();
            assert_eq!(src.next_op().as_ref(), Some(&ops[0]));
            src.rewind();
            assert_eq!(src.peek_op(), Some(&ops[0]));
            let drained: Vec<Op> = std::iter::from_fn(|| src.next_op()).collect();
            assert_eq!(drained, ops);
        }
    }

    #[test]
    fn streamed_and_materialized_sources_agree() {
        let make = || {
            OpSource::streamed(BlockProgram::new(|k, buf: &mut Vec<Op>| {
                if k >= 5 {
                    return false;
                }
                buf.push(Op::Compute {
                    flops: 1.0 + k as f64,
                    bytes: 0.0,
                });
                true
            }))
        };
        let mut streamed = make();
        let ops = streamed.drain_to_vec();
        let mut mat = OpSource::materialized(ops.clone());
        streamed.rewind();
        for expect in &ops {
            assert_eq!(streamed.next_op().as_ref(), Some(expect));
            assert_eq!(mat.next_op().as_ref(), Some(expect));
        }
        assert_eq!(streamed.next_op(), None);
        assert_eq!(mat.next_op(), None);
    }

    #[test]
    fn job_counts_ops_without_materializing() {
        let sources = (0..4)
            .map(|_| {
                OpSource::streamed(BlockProgram::new(|k, buf: &mut Vec<Op>| {
                    if k >= 10 {
                        return false;
                    }
                    buf.push(Op::Compute {
                        flops: 1.0,
                        bytes: 0.0,
                    });
                    buf.push(Op::Coll(CollOp::Barrier));
                    true
                }))
            })
            .collect();
        let mut job = JobSpec::from_sources("count", sources, vec![]);
        assert!(job.is_fully_streamed());
        assert_eq!(job.total_ops(), 4 * 10 * 2);
        // Counting must not consume the job.
        assert_eq!(job.total_ops(), 4 * 10 * 2);
    }
}
