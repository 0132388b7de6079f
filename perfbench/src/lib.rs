//! Seeded wall-clock benchmark of the ASUCA reproduction: four
//! workloads timed end to end, and a traced run that breaks each one
//! down by layer. See `README.md` beside this crate.

pub mod host;
pub mod input;
pub mod json;
pub mod layers;
pub mod schema;
pub mod stats;
pub mod trace;
pub mod workload;
