//! Sampling utilities for the verifier.
//!
//! The paper's accuracy analysis (§3.6) estimates cluster error on samples
//! of the source data, using *"repeated k out of n sampling, a stronger
//! statistical technique"*: draw several independent k-element simple
//! random samples and average the statistic across repetitions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::tuple::Tuple;

/// Draws a simple random sample of `k` row indices out of `n` without
/// replacement (Floyd's algorithm — O(k) expected, no O(n) shuffle).
pub fn sample_indices(n: usize, k: usize, rng: &mut StdRng) -> Result<Vec<usize>, DataError> {
    if k > n {
        return Err(DataError::InvalidConfig(format!(
            "cannot sample {k} items from a population of {n}"
        )));
    }
    // Floyd's: for j in n-k..n, pick t in 0..=j; insert t unless taken, else j.
    let mut chosen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.insert(t) { t } else { j };
        if pick != t {
            chosen.insert(pick);
        }
        out.push(pick);
    }
    Ok(out)
}

/// A simple random sample of `k` rows from `dataset`, without replacement.
///
/// A dataset stores columns, not tuples: the first call builds every
/// row's [`Tuple`] and the dataset keeps them for later calls, so the
/// first sample of an `n`-row dataset costs `n` tuples' time and memory.
pub fn sample_rows<'a>(
    dataset: &'a Dataset,
    k: usize,
    rng: &mut StdRng,
) -> Result<Vec<&'a Tuple>, DataError> {
    let idx = sample_indices(dataset.len(), k, rng)?;
    let tuples = dataset.tuples();
    Ok(idx.into_iter().map(|i| &tuples[i]).collect())
}

/// Configuration for repeated k-out-of-n sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedSampling {
    /// Sample size `k` per repetition.
    pub k: usize,
    /// Number of repetitions.
    pub repetitions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RepeatedSampling {
    /// Estimates a statistic by averaging `f` over `repetitions`
    /// independent k-samples of `dataset`. Returns `(mean, std_dev)` of the
    /// per-repetition statistics.
    pub fn estimate<F>(&self, dataset: &Dataset, mut f: F) -> Result<(f64, f64), DataError>
    where
        F: FnMut(&[&Tuple]) -> f64,
    {
        if self.repetitions == 0 {
            return Err(DataError::InvalidConfig("repetitions must be > 0".into()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut values = Vec::with_capacity(self.repetitions);
        for _ in 0..self.repetitions {
            let rows = sample_rows(dataset, self.k, &mut rng)?;
            values.push(f(&rows));
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        Ok((mean, var.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::tuple::Value;

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![Attribute::quantitative("x", 0.0, 1e9)]).unwrap();
        let mut ds = Dataset::new(schema);
        for i in 0..n {
            ds.push(&[Value::Quant(i as f64)]).unwrap();
        }
        ds
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let idx = sample_indices(100, 30, &mut rng).unwrap();
            assert_eq!(idx.len(), 30);
            let set: std::collections::HashSet<_> = idx.iter().collect();
            assert_eq!(set.len(), 30, "duplicates in {idx:?}");
            assert!(idx.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn sample_full_population() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut idx = sample_indices(10, 10, &mut rng).unwrap();
        idx.sort_unstable();
        assert_eq!(idx, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_indices(10, 0, &mut rng).unwrap().is_empty());
        assert!(sample_indices(0, 0, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn oversampling_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(sample_indices(5, 6, &mut rng).is_err());
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Chi-square-ish sanity check: each of 10 items should be chosen
        // ~ k/n * trials times.
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        let trials = 2_000;
        for _ in 0..trials {
            for i in sample_indices(10, 3, &mut rng).unwrap() {
                counts[i] += 1;
            }
        }
        let expected = trials as f64 * 0.3;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.25,
                "item {i} chosen {c} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn repeated_sampling_estimates_mean() {
        let ds = dataset(1_000); // values 0..999, mean 499.5
        let rs = RepeatedSampling { k: 100, repetitions: 20, seed: 42 };
        let (mean, sd) = rs
            .estimate(&ds, |rows| rows.iter().map(|t| t.quant(0)).sum::<f64>() / rows.len() as f64)
            .unwrap();
        assert!((mean - 499.5).abs() < 30.0, "mean = {mean}");
        assert!(sd < 60.0, "sd = {sd}");
    }

    #[test]
    fn repeated_sampling_rejects_zero_reps() {
        let ds = dataset(10);
        let rs = RepeatedSampling { k: 5, repetitions: 0, seed: 0 };
        assert!(rs.estimate(&ds, |_| 0.0).is_err());
    }

    #[test]
    fn repeated_sampling_deterministic() {
        let ds = dataset(500);
        let rs = RepeatedSampling { k: 50, repetitions: 5, seed: 7 };
        let f = |rows: &[&Tuple]| rows.iter().map(|t| t.quant(0)).sum::<f64>();
        let a = rs.estimate(&ds, f).unwrap();
        let b = rs.estimate(&ds, f).unwrap();
        assert_eq!(a, b);
    }
}
