//! # edgesim — discrete-event simulator of the paper's edge testbed
//!
//! The evaluation (§V) runs on nine Raspberry Pis (models A+, B, B+) plus a
//! laptop, star-connected over WiFi (Fig. 8). Reproducing it without that
//! hardware requires a simulator that models the same additive cost terms:
//! input transmission over per-node half-duplex links, non-preemptive
//! compute at the device's seconds-per-bit rate (Pi A+ = `4.75e-7 s/bit`,
//! the paper's constant), result return, and controller-side
//! partition/decision overheads. Processing time (`PT = t_s − t_c`) is the
//! headline metric of Figs. 9-11.
//!
//! Beyond the paper's testbed, the simulator scales to 1000+-node worlds:
//! [`network::MeshNetwork`] models arbitrary topologies with static
//! shortest-path routes and proportional-share link contention, and the
//! star is its degenerate single-hop case.
//!
//! * [`node`] — device models and compute rates.
//! * [`network`] — star WiFi links and bandwidth sweeps, plus CSR mesh
//!   topologies with per-hop links and build-time routing.
//! * [`event`] — the deterministic discrete-event queue: the indexed
//!   [`event::CalendarQueue`] with its `(time, seq)` FIFO contract (the
//!   one-global-`BinaryHeap` queue it replaced is the oracle in that
//!   module's tests, not part of the API).
//! * [`cluster`] — Fig. 8 testbed assembly and variants; seeded
//!   grid-with-chords mesh testbeds ([`cluster::Cluster::mesh_testbed`]).
//! * [`run`] — executing a task→node assignment, producing a [`run::SimReport`];
//!   fault-aware execution with retries via [`run::simulate_with_faults`].
//!   One task lifecycle drives both topologies, generic over how a
//!   transfer is carried (star FIFO reservations or mesh flows).
//! * [`faults`] — seeded deterministic crash/link/straggler schedules.
//! * [`trace`] — failure logs and the per-node exposure they fold into.
//!
//! ## Example
//!
//! ```
//! use edgesim::cluster::Cluster;
//! use edgesim::node::NodeId;
//! use edgesim::run::{simulate, NodeAssignment, SimConfig, SimTask};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::paper_testbed()?;
//! let tasks = vec![SimTask::new(1e6, 1e4, 1.0)?];
//! let mut assignment = NodeAssignment::empty(1);
//! assignment.assign(0, Some(NodeId(1)));
//! let report = simulate(&cluster, &tasks, &assignment, SimConfig::default())?;
//! assert!(report.processing_time > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod event;
pub mod faults;
pub mod network;
pub mod node;
pub mod run;
pub mod trace;
