//! Shared, engine-free parts of the repo benchmark: the seeded input
//! generator, the reference computations and their checkers, order
//! statistics, the span recorder, the host fingerprint, and the result
//! renderings. The two binaries (`e2e`, `layers`) add the engine.

pub mod catalog;
pub mod gen;
pub mod host;
pub mod params;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
