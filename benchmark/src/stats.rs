//! Order statistics over small samples of repeats.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample, `q` in `[0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let v = sorted(values);
    let idx = ((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1);
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        let v = [3.0, 1.0, 4.0, 1.5];
        assert_eq!(min(&v), 1.0);
        assert_eq!(median(&v), 2.25);
        assert_eq!(median(&[3.0, 1.0, 4.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.25), 25.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.75), 75.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
