//! Typed scheduler errors: every malformed input and every allocation a
//! placement policy cannot satisfy surfaces as a [`SchedError`], so
//! drivers can report which job, which need and which policy failed
//! instead of aborting the process.

use std::fmt;

/// Why a scheduling run (or a single allocation) could not proceed.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// Raw capacity admits the request but the placement policy cannot
    /// satisfy it from the candidate nodes it was given (fragmentation).
    /// The engine only places a job once [`crate::NodePool::feasible`]
    /// admits its candidates, so the entry points do not return it.
    PlacementUnsatisfiable {
        need: usize,
        policy: &'static str,
        free: usize,
    },
    /// The job asks for more nodes than the pool (or its quota ceiling)
    /// can ever provide.
    InsufficientNodes {
        job: usize,
        need: usize,
        limit: usize,
    },
    /// An advance reservation came due but its window no longer holds the
    /// promised capacity (a mis-specified calendar).
    ReservationUnsatisfiable { job: usize, at: f64 },
    /// The dependency edges contain a cycle through this job.
    DependencyCycle { job: usize },
    /// The run's events were exhausted while this job (the caller's
    /// [`crate::SchedJob::id`]) was still queued or gated: nothing left
    /// could ever start it.
    Stranded { job: usize },
    /// A malformed job specification (bad shape, bad dependency index,
    /// reservation before submission, ...).
    InvalidJob { job: usize, reason: String },
    /// A malformed site configuration (inverted maintenance window,
    /// zero-node quota, no burst home site, ...).
    InvalidConfig { reason: String },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::PlacementUnsatisfiable { need, policy, free } => write!(
                f,
                "placement {policy} cannot carve {need} nodes out of {free} free (fragmentation)"
            ),
            SchedError::InsufficientNodes { job, need, limit } => {
                write!(
                    f,
                    "job {job} needs {need} nodes but at most {limit} can ever be free"
                )
            }
            SchedError::ReservationUnsatisfiable { job, at } => {
                write!(
                    f,
                    "advance reservation of job {job} at t={at} cannot be honoured"
                )
            }
            SchedError::DependencyCycle { job } => {
                write!(f, "dependency cycle through job {job}")
            }
            SchedError::Stranded { job } => write!(
                f,
                "job {job} is stranded: no event is left that could start it"
            ),
            SchedError::InvalidJob { job, reason } => write!(f, "job {job}: {reason}"),
            SchedError::InvalidConfig { reason } => write!(f, "site config: {reason}"),
        }
    }
}

impl std::error::Error for SchedError {}
