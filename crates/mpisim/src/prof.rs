//! Profiling hook: the seam between the MPI engine and the IPM-style
//! monitor.
//!
//! The engine emits a [`ProfEvent`] for every timed activity of every rank.
//! `sim-ipm` implements [`ProfSink`] to build per-section, per-call ledgers;
//! [`NullSink`] discards everything for unprofiled runs.

use crate::op::SectionId;
use sim_des::SimTime;

/// Category of a timed MPI activity, mirroring the call names IPM reports.
/// Ordered by declaration, which breaks ties in IPM's call table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MpiKind {
    Send,
    Recv,
    Sendrecv,
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Allgather,
    Alltoall,
    Gather,
    Scatter,
}

impl MpiKind {
    pub fn name(&self) -> &'static str {
        match self {
            MpiKind::Send => "MPI_Send",
            MpiKind::Recv => "MPI_Recv",
            MpiKind::Sendrecv => "MPI_Sendrecv",
            MpiKind::Barrier => "MPI_Barrier",
            MpiKind::Bcast => "MPI_Bcast",
            MpiKind::Reduce => "MPI_Reduce",
            MpiKind::Allreduce => "MPI_Allreduce",
            MpiKind::Allgather => "MPI_Allgather",
            MpiKind::Alltoall => "MPI_Alltoall",
            MpiKind::Gather => "MPI_Gather",
            MpiKind::Scatter => "MPI_Scatter",
        }
    }

    /// Whether the call is a collective (spends part of its time waiting on
    /// other ranks — IPM can't distinguish wait from wire either).
    pub fn is_collective(&self) -> bool {
        !matches!(self, MpiKind::Send | MpiKind::Recv | MpiKind::Sendrecv)
    }
}

/// Direction of a file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    Read,
    Write,
}

/// One timed activity on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfEvent {
    SectionEnter {
        id: SectionId,
        t: SimTime,
    },
    SectionExit {
        id: SectionId,
        t: SimTime,
    },
    Compute {
        start: SimTime,
        end: SimTime,
    },
    Mpi {
        kind: MpiKind,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    },
    Io {
        kind: IoKind,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    },
    /// A rank stalled on a transient fault (crashed node + retry/backoff).
    Fault {
        start: SimTime,
        end: SimTime,
    },
    /// The whole job died on a fatal fault and relaunched at `end`; any
    /// profiling sections open at `start` were aborted and will be
    /// re-entered when the rank re-executes its program. Also emitted for
    /// ABFT rollbacks and shrink recoveries (the gap may be zero), so the
    /// section stack reset and fault accounting stay uniform.
    Restart {
        start: SimTime,
        end: SimTime,
    },
    /// An ABFT verification cut (barrier + checksum pass). Overlays the
    /// `Mpi`/`Compute` events the cut also emits — informational
    /// attribution, not part of the comm/comp conservation.
    Verify {
        start: SimTime,
        end: SimTime,
    },
    /// A shrink-and-spare recovery: communicator repair plus state
    /// redistribution to the replacement node. Overlays the `Restart`
    /// event carrying the same gap.
    Shrink {
        start: SimTime,
        end: SimTime,
    },
    /// A silent-data-corruption event was adjudicated at a verification or
    /// checkpoint cut (or at job end, for corruptions no cut ever covered).
    Sdc {
        t: SimTime,
        detected: bool,
    },
}

/// The column of a rank's wallclock split that a timed span is charged
/// to: IPM's compute, MPI and I/O columns, plus the fault ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    Comp,
    Comm,
    Io,
    Fault,
}

impl ProfEvent {
    /// The column this event charges and the span it charges there:
    /// compute to comp, MPI to comm, I/O to io, a fault stall or a restart
    /// gap to fault. `None` for the zero-width markers (sections, SDC) and
    /// the overlays (verify, shrink), whose time other events charge.
    ///
    /// The engine's per-rank totals and IPM's ledgers both charge through
    /// this one mapping, so every span lands in exactly one column and
    /// `wall == comp + comm + io + fault` holds by construction.
    pub fn charge(&self) -> Option<(Column, SimTime, SimTime)> {
        match *self {
            ProfEvent::Compute { start, end } => Some((Column::Comp, start, end)),
            ProfEvent::Mpi { start, end, .. } => Some((Column::Comm, start, end)),
            ProfEvent::Io { start, end, .. } => Some((Column::Io, start, end)),
            ProfEvent::Fault { start, end } | ProfEvent::Restart { start, end } => {
                Some((Column::Fault, start, end))
            }
            ProfEvent::SectionEnter { .. }
            | ProfEvent::SectionExit { .. }
            | ProfEvent::Verify { .. }
            | ProfEvent::Shrink { .. }
            | ProfEvent::Sdc { .. } => None,
        }
    }
}

/// Receiver of profile events.
pub trait ProfSink {
    fn on_event(&mut self, rank: usize, ev: ProfEvent);

    /// Whether this sink consumes events at all. The engine checks once per
    /// run and, when the sink is a black hole, drops every event at its one
    /// gate instead of making a dynamic call per event.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards all events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProfSink for NullSink {
    fn on_event(&mut self, _rank: usize, _ev: ProfEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_mpi_spelled() {
        assert_eq!(MpiKind::Allreduce.name(), "MPI_Allreduce");
        assert_eq!(MpiKind::Sendrecv.name(), "MPI_Sendrecv");
    }

    #[test]
    fn collectivity() {
        assert!(MpiKind::Allreduce.is_collective());
        assert!(MpiKind::Barrier.is_collective());
        assert!(!MpiKind::Send.is_collective());
        assert!(!MpiKind::Sendrecv.is_collective());
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.on_event(
            0,
            ProfEvent::Compute {
                start: SimTime(0),
                end: SimTime(10),
            },
        );
    }
}
