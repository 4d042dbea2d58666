//! # dcta-bench — the reproduction's experiment harness
//!
//! One module per figure/table family of the paper's evaluation, each
//! producing a serialisable snapshot plus a rendered text table. The
//! `reproduce` binary drives them; `EXPERIMENTS.md` records
//! paper-vs-measured values.
//!
//! | Module | Paper artefacts |
//! |---|---|
//! | [`distribution`] | Fig. 2 (long tail), Fig. 3 (accurate vs random), Figs. 4-5 (importance by machine × operation), Table I |
//! | [`staleness`] | §III-C 46.28 % plain-RL drop, §IV-A 28.84 % CRL drop |
//! | [`localmodel`] | §IV-B SVM vs AdaBoost vs Random Forest |
//! | [`sweeps`] | Fig. 9 (processors), Fig. 10 (input size), Fig. 11 (bandwidth) |
//! | [`solvers`] | Theorem 1 solver stack (gap + time) |
//! | [`ablations`] | Eq. 6 weight sweep, §VII kNN-vs-k-means lookup, quality gap |
//! | [`extensions`] | Shapley-vs-LOO importance, shared-medium contention |
//! | [`faultsweep`] | Robustness extension: crash-rate × MTTR recovery grid |
//! | [`meshalloc`] | Objective extension: route-aware vs blind allocation on large meshes |
//! | [`serving`] | Serving extension: allocation-as-a-service throughput |
//! | [`scale`] | Scale extension: star/mesh events-per-second sweep |
//! | [`portfolio`] | Anytime portfolio: exact-vs-portfolio at production sizes |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod distribution;
pub mod extensions;
pub mod faultsweep;
pub mod localmodel;
pub mod meshalloc;
pub mod portfolio;
pub mod scale;
pub mod serving;
pub mod solvers;
pub mod staleness;
pub mod sweeps;
