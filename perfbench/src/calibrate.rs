//! Host-speed calibration.
//!
//! The machine this benchmark runs on may be shared: on a 2-vCPU
//! virtual machine the same single-threaded pass ran anywhere from 24 to
//! 42 million items/s, drifting over minutes, and everything slowed
//! together — setup, sampling, answering. A fixed kernel that does not
//! depend on the program (sorting 32 Ki pseudo-random words, which stay in
//! the core's L2 cache) is timed right before every pass; the pass's times
//! are scaled by `REFERENCE / kernel time`. Raw figures are kept in the
//! environment record beside the calibrated ones.
//!
//! In one set of ten runs (seeds 501-510) on that host, the spread of
//! `items_per_s` (interquartile range over median), raw and calibrated
//! from the same runs, was 0.135 and 0.022 on sim_bulk and 0.256 and
//! 0.022 on sim_sketch. The kernel tracks a single thread's speed, not
//! contention between threads: on the threaded replay_frames the same
//! runs spread 0.196 raw and 0.234 calibrated. `setup_s` on wall_paced,
//! which spawns the pipeline's threads, spread 0.423 raw and 0.208
//! calibrated.
//!
//! The tail of result latency is not calibrated: it is set by host events
//! such as preemption rather than by a core's speed. In five runs (seeds
//! 801-805) its spread was 0.195 calibrated and 0.036 raw on sim_bulk,
//! 0.101 and 0.037 on sim_sketch.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel time that calibrated figures are scaled to: about what the
/// kernel takes on the 2.1 GHz Xeon vCPU the bounds were set on, so
/// calibrated figures read close to raw ones there.
pub const REFERENCE: Duration = Duration::from_micros(850);

/// Words sorted per kernel run.
const SORTED: usize = 1 << 15;

/// The calibration kernel's buffer, allocated (and touched) once, before
/// any memory measurement starts.
#[derive(Debug)]
pub struct Calibration {
    sorted: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            sorted: vec![0; SORTED],
        }
    }
}

impl Calibration {
    /// Runs the kernel and returns the factor that scales a time measured
    /// now to the reference host speed (`REFERENCE / kernel time`).
    pub fn factor(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for word in &mut self.sorted {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *word = x;
        }
        self.sorted.sort_unstable();
        black_box(self.sorted[SORTED / 2]);
        REFERENCE.as_secs_f64() / start.elapsed().as_secs_f64()
    }
}
