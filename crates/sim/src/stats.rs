//! Small statistics helpers shared by the communication manager (delivery
//! rate estimation) and the experiment harness (run averaging).

use crate::time::SimDuration;

/// Exponentially weighted moving average of inter-arrival times.
///
/// The communication manager feeds one observation per received tuple batch;
/// [`Ewma::value`] is the live estimate of the wrapper's waiting time `w_p`
/// used by the scheduler's critical-degree metric (§4.3).
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
    observations: u64,
}

impl Ewma {
    /// `alpha` is the weight of a fresh observation (0 < alpha <= 1).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0,1]: {alpha}");
        Ewma {
            alpha,
            value: None,
            observations: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, sample: SimDuration) {
        let x = sample.as_nanos() as f64;
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
        self.observations += 1;
    }

    /// Current estimate, if any observation arrived yet.
    pub fn value(&self) -> Option<SimDuration> {
        self.value
            .map(|v| SimDuration::from_nanos(v.max(0.0).round() as u64))
    }

    /// Number of observations folded in.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// Mean of a set of f64 samples (used to average repeated seeded runs, the
/// paper repeats each measurement 3 times).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Sample standard deviation; zero for fewer than two samples.
pub fn stddev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_observation_is_exact() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        e.observe(SimDuration::from_micros(50));
        assert_eq!(e.value(), Some(SimDuration::from_micros(50)));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        e.observe(SimDuration::from_micros(100));
        for _ in 0..100 {
            e.observe(SimDuration::from_micros(20));
        }
        let v = e.value().unwrap().as_nanos();
        assert!((v as i64 - 20_000).abs() < 100, "{v}");
    }

    #[test]
    fn ewma_tracks_rate_change() {
        let mut e = Ewma::new(0.5);
        e.observe(SimDuration::from_micros(20));
        // A 10x slower tuple moves the estimate half way towards it.
        e.observe(SimDuration::from_micros(200));
        assert_eq!(e.value(), Some(SimDuration::from_micros(110)));
    }

    #[test]
    #[should_panic(expected = "alpha out of")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        let s = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.138).abs() < 0.01, "{s}");
    }
}
