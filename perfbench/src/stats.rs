//! Order statistics with the benchmark's percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise the tail it names is a single unlucky sample.

use std::time::Duration;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q <= 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.  p99 therefore
/// needs at least 1,000 samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle samples for even counts); NaN when
/// empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean; NaN when empty.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The job-tail figure: p99 when the samples support it, otherwise the
/// median over passes of each pass's slowest sample (a fixed job set too
/// small for p99 then reports its slowest job, steadied across passes).
#[must_use]
pub fn tail(samples: &[f64], pass_maxima: &[f64]) -> f64 {
    percentile(samples, 0.99).unwrap_or_else(|| median(pass_maxima))
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), None, "999 samples: 9 beyond");
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(samples.iter().filter(|&&s| s > 990.0).count(), 10);
    }

    #[test]
    fn median_needs_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
        assert_eq!(median(&samples), 10.5);
    }

    #[test]
    fn tail_falls_back_to_the_median_slowest_pass_sample() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(tail(&samples, &[3.0, 9.0, 4.0]), 4.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many, &[1.0]), 1980.0);
    }

    #[test]
    fn empty_inputs_are_nan_or_none() {
        assert!(median(&[]).is_nan());
        assert!(mean(&[]).is_nan());
        assert_eq!(percentile(&[], 0.5), None);
    }
}
