//! The benchmark's clock: wall time rescaled to a reference host speed.
//!
//! The measuring host is a shared virtual machine. Its speed changes by
//! up to 2× for seconds or minutes at a time as other guests load the
//! physical cores, while steal time stays near 0. A time read off the
//! wall clock then says as much about the other guests as about the
//! code: ten runs of unchanged code spread by up to a third.
//!
//! [`RefClock`] measures the host's speed as it goes. At most every
//! [`CAL_PERIOD`] it times a fixed calibration kernel, which is the
//! benchmark's own code and which no change to the toolkit touches.
//! Until the next calibration it advances by `CAL_REF_S / kernel time`
//! reference seconds per wall second. The time the kernel itself takes
//! is left out. On a host as fast as the one [`CAL_REF_S`] was measured
//! on, a reference second is a wall second.
//!
//! What the clock cannot tell apart from a host slowdown is anything
//! that changes the kernel's own speed. A change to the compiler flags
//! of the whole build moves both the kernel and the flows, so the
//! clock shows only the part of the change that the flows gain beyond
//! the kernel.

use std::time::{Duration, Instant};

/// Shortest wall time between two calibrations. A calibration takes
/// 0.7 to 1.5 ms, so the clock costs about 1 % of a run.
pub const CAL_PERIOD: Duration = Duration::from_millis(100);

/// Time of [`calibration_kernel`] on the baseline host, a 2-vCPU KVM
/// guest on an Intel Xeon at 2.1 GHz in its fast state, seconds.
pub const CAL_REF_S: f64 = 0.7e-3;

/// Calibration kernel: order of the matrix it factors, and how often.
/// The matrix (128 KiB) stays in the core's L2 cache.
const CAL_N: usize = 128;
const CAL_REPS: usize = 4;

/// Times one run of the calibration kernel, seconds: `CAL_REPS` LU
/// factorizations, without pivoting, of a diagonally dominant
/// `CAL_N × CAL_N` matrix.
#[must_use]
pub fn calibration_kernel() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0.0;
    for rep in 0..CAL_REPS {
        let mut a: Vec<f64> = (0..CAL_N * CAL_N)
            .map(|k| {
                let (i, j) = (k / CAL_N, k % CAL_N);
                let diag = if i == j { CAL_N as f64 } else { 0.0 };
                ((i * 7 + j * 13 + rep) % 17) as f64 / 17.0 + diag
            })
            .collect();
        a = std::hint::black_box(a);
        for k in 0..CAL_N {
            let (done, rest) = a.split_at_mut((k + 1) * CAL_N);
            let pivot_row = &done[k * CAL_N..];
            let pivot = pivot_row[k];
            for row in rest.chunks_exact_mut(CAL_N) {
                let f = row[k] / pivot;
                for (x, p) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *x -= f * p;
                }
            }
        }
        acc += a[CAL_N * CAL_N - 1];
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// A clock in reference seconds (see the module documentation).
#[derive(Debug)]
pub struct RefClock {
    /// Wall time of the last reading.
    last: Instant,
    /// Reference seconds at `last`, since the clock was created.
    now_s: f64,
    /// Reference seconds per wall second since the last calibration.
    rate: f64,
    /// Wall time the last calibration ended.
    calibrated: Option<Instant>,
    /// Kernel time over [`CAL_REF_S`], one entry per calibration.
    slowness: Vec<f64>,
}

impl Default for RefClock {
    fn default() -> Self {
        Self {
            last: Instant::now(),
            now_s: 0.0,
            rate: 1.0,
            calibrated: None,
            slowness: Vec::new(),
        }
    }
}

impl RefClock {
    /// Reference seconds since the clock was created. Calibrates first
    /// when the last calibration is [`CAL_PERIOD`] old.
    pub fn now(&mut self) -> f64 {
        let t = Instant::now();
        self.now_s += (t - self.last).as_secs_f64() * self.rate;
        self.last = t;
        if self.calibrated.is_none_or(|c| t - c >= CAL_PERIOD) {
            let slowness = calibration_kernel() / CAL_REF_S;
            self.slowness.push(slowness);
            self.rate = 1.0 / slowness;
            // The calibration is not part of what is being timed.
            self.last = Instant::now();
            self.calibrated = Some(self.last);
        }
        self.now_s
    }

    /// Every calibration's kernel time over [`CAL_REF_S`]: above 1 the
    /// host was slower than the reference.
    #[must_use]
    pub fn slowness(&self) -> &[f64] {
        &self.slowness
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_time_is_left_out_and_rescales_the_clock() {
        let mut c = RefClock::default();
        let t0 = c.now();
        assert_eq!(c.slowness().len(), 1);
        let wall = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let wall = wall.elapsed().as_secs_f64();
        let dt = c.now() - t0;
        // Not due again: one calibration, and the wall time scaled by it.
        assert_eq!(c.slowness().len(), 1);
        let rate = 1.0 / c.slowness()[0];
        assert!((0.005 * rate..=(wall + 1e-3) * rate).contains(&dt));
    }
}
