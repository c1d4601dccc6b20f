//! Sampling algorithms: reservoirs, allocation policies, weighted
//! hierarchical sampling (reference path and the zero-copy
//! [`whs::WhsScratch`] hot path), §III-E sharding (round-robin reference
//! and the slice-partitioned [`sharded::ParallelShardedSampler`]) and the
//! SRS baseline.

pub mod allocation;
pub mod reservoir;
pub mod sharded;
pub mod srs;
pub mod whs;
