//! Waveform measurements: delay, skew, overshoot, ringing, noise.
//!
//! These compute the quantities the paper's Table 1 and Figure 4 report
//! (worst delay, worst skew) and the signal-integrity metrics its
//! introduction lists (overshoots, undershoots, oscillations, crosstalk
//! noise).

use crate::waveform::Trace;

/// 50 %-crossing delay from `stimulus` to `response` for a swing between
/// `v_low` and `v_high`. Returns `None` if either waveform never crosses
/// the midpoint.
pub fn delay_50(stimulus: &Trace, response: &Trace, v_low: f64, v_high: f64) -> Option<f64> {
    let mid = 0.5 * (v_low + v_high);
    let t_in = stimulus.first_crossing(mid)?;
    let t_out = response_crossing_after(response, mid, t_in)?;
    Some(t_out - t_in)
}

/// First crossing of `level` at or after `t_min` (delays must not pick
/// up pre-transition ringing).
fn response_crossing_after(tr: &Trace, level: f64, t_min: f64) -> Option<f64> {
    for w in 0..tr.len().saturating_sub(1) {
        if tr.time[w + 1] < t_min {
            continue;
        }
        let (v0, v1) = (tr.values[w], tr.values[w + 1]);
        if (v0 - level) * (v1 - level) <= 0.0 && v0 != v1 {
            let (t0, t1) = (tr.time[w], tr.time[w + 1]);
            let f = (level - v0) / (v1 - v0);
            let t = t0 + f * (t1 - t0);
            if t >= t_min {
                return Some(t);
            }
        }
    }
    None
}

/// Skew: spread (max − min) of a set of delays. Returns 0 for fewer than
/// two entries.
pub fn skew(delays: &[f64]) -> f64 {
    if delays.len() < 2 {
        return 0.0;
    }
    let max = delays.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = delays.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// Overshoot above the settled high level (0 if none) — the "overshoots"
/// the paper attributes to inductance.
pub fn overshoot(tr: &Trace, v_high: f64) -> f64 {
    (tr.max() - v_high).max(0.0)
}

/// Undershoot below the settled low level (0 if none), as a positive
/// number.
pub fn undershoot(tr: &Trace, v_low: f64) -> f64 {
    (v_low - tr.min()).max(0.0)
}

/// Peak absolute deviation from a quiet baseline — coupling noise on a
/// victim line.
pub fn peak_noise(tr: &Trace, baseline: f64) -> f64 {
    tr.values
        .iter()
        .map(|v| (v - baseline).abs())
        .fold(0.0, f64::max)
}

/// 10 %–90 % rise time for a swing `v_low → v_high`; `None` when the
/// trace does not complete the transition.
pub fn rise_time(tr: &Trace, v_low: f64, v_high: f64) -> Option<f64> {
    let swing = v_high - v_low;
    let t10 = tr.first_crossing(v_low + 0.1 * swing)?;
    let t90 = response_crossing_after(tr, v_low + 0.9 * swing, t10)?;
    Some(t90 - t10)
}

/// Number of times the trace re-crosses the settled level after first
/// reaching it — a ringing (oscillation) count. RC responses score 0;
/// underdamped RLC responses score ≥ 1.
pub fn ring_count(tr: &Trace, settled: f64) -> usize {
    let Some(first) = tr.first_crossing(settled) else {
        return 0;
    };
    let mut count = 0usize;
    let mut prev: Option<f64> = None;
    for (t, v) in tr.time.iter().zip(&tr.values) {
        if *t <= first {
            prev = Some(*v);
            continue;
        }
        if let Some(p) = prev {
            if (p - settled) * (v - settled) < 0.0 {
                count += 1;
            }
        }
        prev = Some(*v);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(t0: f64, t1: f64, v0: f64, v1: f64, n: usize) -> Trace {
        let time: Vec<f64> = (0..n).map(|i| t0 + (t1 - t0) * i as f64 / (n - 1) as f64).collect();
        let values = time
            .iter()
            .map(|&t| v0 + (v1 - v0) * ((t - t0) / (t1 - t0)))
            .collect();
        Trace::new(time, values)
    }

    #[test]
    fn delay_between_two_ramps() {
        let a = ramp(0.0, 1.0, 0.0, 1.0, 101);
        // Response: same ramp but shifted to start at 0.2 in time axis.
        let time: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
        let values: Vec<f64> = time.iter().map(|&t| (t - 0.2).clamp(0.0, 1.0)).collect();
        let b = Trace::new(time, values);
        let d = delay_50(&a, &b, 0.0, 1.0).unwrap();
        assert!((d - 0.2).abs() < 1e-9);
    }

    #[test]
    fn skew_of_delays() {
        assert_eq!(skew(&[1.0, 1.5, 1.2]), 0.5);
        assert_eq!(skew(&[2.0]), 0.0);
        assert_eq!(skew(&[]), 0.0);
    }

    #[test]
    fn overshoot_and_undershoot() {
        let tr = Trace::new(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 1.3, 0.9, 1.0]);
        assert!((overshoot(&tr, 1.0) - 0.3).abs() < 1e-12);
        assert_eq!(undershoot(&tr, 0.0), 0.0);
        let tr2 = Trace::new(vec![0.0, 1.0], vec![0.0, -0.2]);
        assert!((undershoot(&tr2, 0.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn noise_peak() {
        let tr = Trace::new(vec![0.0, 1.0, 2.0], vec![0.0, 0.15, -0.08]);
        assert!((peak_noise(&tr, 0.0) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn rise_time_of_linear_ramp() {
        let tr = ramp(0.0, 1.0, 0.0, 1.0, 1001);
        let rt = rise_time(&tr, 0.0, 1.0).unwrap();
        assert!((rt - 0.8).abs() < 1e-3);
    }

    #[test]
    fn ring_count_on_damped_sine() {
        let n = 2000;
        let time: Vec<f64> = (0..n).map(|i| i as f64 / 100.0).collect();
        let values: Vec<f64> = time
            .iter()
            .map(|&t| 1.0 - (-0.3 * t).exp() * (3.0 * t).cos())
            .collect();
        let tr = Trace::new(time, values);
        assert!(ring_count(&tr, 1.0) >= 3);
        // Monotone RC-like response has no rings.
        let rc = ramp(0.0, 1.0, 0.0, 1.0, 100);
        assert_eq!(ring_count(&rc, 1.0), 0);
    }

    #[test]
    fn delay_none_when_no_crossing() {
        let flat = Trace::new(vec![0.0, 1.0], vec![0.0, 0.1]);
        let a = ramp(0.0, 1.0, 0.0, 1.0, 11);
        assert!(delay_50(&a, &flat, 0.0, 1.0).is_none());
    }
}
