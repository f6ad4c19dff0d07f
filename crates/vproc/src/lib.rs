//! # vecmem-vproc
//!
//! Vector-processor model for the reproduction of Oed & Lange (1985): a
//! Cray X-MP-style CPU front end that turns Fortran vector loops into
//! port-level access streams and runs them on the `vecmem-banksim` memory
//! simulator.
//!
//! * [`mod@array`] / [`layout`] — Fortran column-major arrays, COMMON blocks and
//!   the stride formula of the paper's eq. 33;
//! * [`machine`] — vector length, port roles and timing abstractions;
//! * [`program`] / [`exec`] — strip-mined vector memory instructions with
//!   cross-port dependencies, executed cycle-accurately;
//! * [`triad`] — the §IV experiment: `A(I) = B(I) + C(I)*D(I)` against a
//!   unit-stride background CPU, over increments 1..=16 (Fig. 10).
//!
//! ```
//! use vecmem_vproc::triad::TriadExperiment;
//!
//! // One point of Fig. 10b: the triad with INC = 1, other CPU off.
//! let result = TriadExperiment::paper_alone(1).run();
//! assert_eq!(result.triad_grants, 4 * 1024);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod array;
pub mod exec;
pub mod gather;
pub mod kernels;
pub mod layout;
pub mod loops;
pub mod machine;
pub mod multitask;
pub mod program;
pub mod scaling;
pub mod triad;

pub use array::FortranArray;
pub use exec::{BackgroundStream, ProgramWorkload};
pub use gather::{gather_workload, run_gather, GatherResult, GatherWorkload};
pub use kernels::{compile, Kernel};
pub use layout::CommonBlock;
pub use loops::{LoopSpec, LoopStreamReport, Walk};
pub use machine::{MachineConfig, PortRole};
pub use multitask::{multitask_paper, run_multitasked, MultitaskResult};
pub use program::{Program, Segment, SegmentId};
pub use scaling::{scaled_triad, ScalingResult};
pub use triad::{sweep_increments, TriadExperiment, TriadResult};
