//! Exact order statistics over raw samples.

/// The `q`-quantile by nearest rank: the smallest sample with at least
/// a `q` share of the samples at or below it. Always an observed value.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and returns it.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of unsorted values after dropping the lowest and highest tenth
/// (0 when empty). Unlike the median it moves smoothly when the values
/// fall into two clusters in changing proportions.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A percentile with the sample count it came from, and how many
/// samples lie strictly above it.
pub fn describe(sorted: &[f64], q: f64) -> String {
    let v = quantile(sorted, q);
    let above = sorted.iter().filter(|&&x| x > v).count();
    format!("{v:.3} (n={}, {above} above)", sorted.len())
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64: the benchmark's own input generator, independent of any
/// generator in the program under test.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `0..n` in an order fixed by `key` (Fisher–Yates).
pub fn shuffled(n: usize, key: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = key;
    for i in (1..n).rev() {
        state = splitmix(state);
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_each_tenth() {
        let mut v: Vec<f64> = (1..=18).map(f64::from).collect();
        v.extend([1000.0, -1000.0]);
        assert_eq!(trimmed_mean(&v), 9.5);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn shuffles_are_permutations_fixed_by_key() {
        let a = shuffled(26, 5);
        let mut b = a.clone();
        b.sort_unstable();
        assert_eq!(b, (0..26).collect::<Vec<_>>());
        assert_eq!(a, shuffled(26, 5));
        assert_ne!(a, shuffled(26, 6));
    }
}
