//! Machine-speed calibration.
//!
//! Shared cloud hosts drift: on a 2-vCPU x86-64 VM, one process with one
//! seed saw the ops per wall second of `durable_faults` range from 95k to
//! 160k in phases of seconds to minutes, with no CPU steal or run-queue
//! wait visible to the process. So throughput and set-up time are normalised by
//! a fixed kernel timed in the same stretches of time as the work. The
//! kernel does what the runtime does most (small heap allocations, ordered
//! and hashed map updates over a small key space) with no code from the
//! program under test. A normalised figure reads as the value on a machine
//! where the kernel runs at [`REFERENCE_STEPS_PER_S`].

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::alloc;

/// Kernel steps per second on the reference machine (a 2-vCPU x86-64
/// cloud VM). Only a scale: any constant keeps the normalised figures
/// comparable with each other.
pub const REFERENCE_STEPS_PER_S: f64 = 6_000_000.0;

/// Steps per kernel run (a few milliseconds).
const STEPS: u32 = 20_000;

/// The calibration kernel.
pub struct Kernel {
    /// Heap allocations the kernel itself has made, so callers can keep
    /// them out of the program's counts.
    allocs: Cell<u64>,
}

impl Kernel {
    /// A kernel that has made no allocations yet.
    pub fn new() -> Self {
        Kernel {
            allocs: Cell::new(0),
        }
    }

    /// Runs the kernel once; returns its wall seconds.
    pub fn run(&self) -> f64 {
        let allocs0 = alloc::count();
        let start = Instant::now();
        let mut ordered: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        let mut hashed: HashMap<u64, u32> = HashMap::new();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for step in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x & 1_023) as u32;
            if x & (1 << 20) == 0 {
                ordered.insert(key, vec![step as u8; (x >> 40) as usize & 127]);
            } else {
                ordered.remove(&key);
            }
            *hashed.entry(x >> 54).or_insert(0) += step;
        }
        std::hint::black_box((ordered.len(), hashed.len()));
        drop((ordered, hashed));
        let seconds = start.elapsed().as_secs_f64();
        self.allocs
            .set(self.allocs.get() + alloc::count() - allocs0);
        seconds
    }

    /// Heap allocations made by [`run`](Kernel::run) so far.
    pub fn allocs(&self) -> u64 {
        self.allocs.get()
    }

    /// Machine speed relative to the reference (`> 1` when this machine
    /// runs the kernel faster), from `runs` kernel runs that took
    /// `seconds` in total.
    pub fn speed(runs: u32, seconds: f64) -> f64 {
        f64::from(runs) * f64::from(STEPS) / seconds / REFERENCE_STEPS_PER_S
    }
}
