//! Labelled synthetic-tuple generation with the paper's noise model.
//!
//! Paper Table 1 parameters:
//!
//! * `|D|` — number of tuples (20 000 to 10 million),
//! * `fracA` / `fracother` — fraction of tuples per group (40% / 60%),
//! * `p` — perturbation factor modelling fuzzy disjunct boundaries (5%),
//! * `U` — outlier percentage: tuples carrying a group label whose
//!   attribute values do *not* satisfy the generating rules (0% / 10%).
//!
//! Generation of one tuple proceeds as:
//!
//! 1. Draw the target label from `Bernoulli(fracA)` (paper: group fractions
//!    are a workload parameter, so labels are drawn first and the attribute
//!    vector is rejection-sampled to match).
//! 2. Decide with probability `U` that the tuple is an outlier.
//! 3. Rejection-sample a [`Person`] until `function(person) == target`
//!    (inverted for outliers), so outliers carry a label contradicting the
//!    generating rules — exactly the paper's definition.
//! 4. Perturb each quantitative attribute `v` to `v + r·p·v`, `r` uniform
//!    in `[-1, 1]`, clamped to the attribute domain (Agrawal et al.'s
//!    value-relative perturbation), *after* labelling — this is what makes
//!    boundaries fuzzy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::agrawal::{attr, AgrawalFunction, Person, GROUP_A, GROUP_OTHER};
use crate::dataset::Dataset;
use crate::error::DataError;
use crate::tuple::{Tuple, Value};

/// Maximum rejection-sampling attempts before giving up on matching a
/// target label. All ten Agrawal functions have acceptance rates far above
/// `1/REJECTION_CAP` for both labels.
const REJECTION_CAP: u32 = 100_000;

/// Configuration of the synthetic workload (paper Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Which Agrawal function labels the data. The paper uses
    /// [`AgrawalFunction::F2`].
    pub function: AgrawalFunction,
    /// Fraction of tuples labelled Group A (paper: 0.40).
    pub frac_group_a: f64,
    /// Value-relative perturbation factor `p` (paper: 0.05).
    pub perturbation: f64,
    /// Outlier fraction `U` (paper: 0.0 and 0.10).
    pub outlier_fraction: f64,
    /// RNG seed; identical configs with identical seeds generate identical
    /// streams.
    pub seed: u64,
}

impl GeneratorConfig {
    /// The paper's default workload: Function 2, 40% Group A, 5%
    /// perturbation, no outliers.
    pub fn paper_defaults(seed: u64) -> Self {
        GeneratorConfig {
            function: AgrawalFunction::F2,
            frac_group_a: 0.40,
            perturbation: 0.05,
            outlier_fraction: 0.0,
            seed,
        }
    }

    /// Like [`paper_defaults`](Self::paper_defaults) but with the paper's
    /// 10% outlier setting.
    pub fn paper_defaults_with_outliers(seed: u64) -> Self {
        GeneratorConfig { outlier_fraction: 0.10, ..Self::paper_defaults(seed) }
    }

    fn validate(&self) -> Result<(), DataError> {
        if !(0.0..=1.0).contains(&self.frac_group_a) {
            return Err(DataError::InvalidConfig(format!(
                "frac_group_a {} outside [0, 1]",
                self.frac_group_a
            )));
        }
        if !(0.0..=1.0).contains(&self.perturbation) {
            return Err(DataError::InvalidConfig(format!(
                "perturbation {} outside [0, 1]",
                self.perturbation
            )));
        }
        if !(0.0..=1.0).contains(&self.outlier_fraction) {
            return Err(DataError::InvalidConfig(format!(
                "outlier_fraction {} outside [0, 1]",
                self.outlier_fraction
            )));
        }
        Ok(())
    }
}

/// A deterministic, infinite stream of labelled Agrawal tuples.
///
/// [`generate`](AgrawalGenerator::generate) writes `n` of them into a
/// [`Dataset`]'s columns; the [`Iterator`] yields them one [`Tuple`] at
/// a time, the same stream.
#[derive(Debug, Clone)]
pub struct AgrawalGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl AgrawalGenerator {
    /// Creates a generator after validating `config`.
    pub fn new(config: GeneratorConfig) -> Result<Self, DataError> {
        config.validate()?;
        let rng = StdRng::seed_from_u64(config.seed);
        Ok(AgrawalGenerator { config, rng })
    }

    /// The generator's configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generates the next labelled person, before conversion to a tuple.
    /// Returns `(person, label_code, is_outlier)`.
    pub fn next_person(&mut self) -> (Person, u32, bool) {
        let want_a = self.rng.gen_bool(self.config.frac_group_a);
        let outlier =
            self.config.outlier_fraction > 0.0 && self.rng.gen_bool(self.config.outlier_fraction);
        // An outlier carries its label but its attributes satisfy the
        // *opposite* side of the generating function.
        let want_function_a = want_a ^ outlier;
        let mut person = Person::random(&mut self.rng);
        let mut attempts = 0u32;
        while self.config.function.classify(&person) != want_function_a {
            person = Person::random(&mut self.rng);
            attempts += 1;
            assert!(
                attempts < REJECTION_CAP,
                "rejection sampling failed to find a {:?} tuple with label A = {want_function_a}",
                self.config.function
            );
        }
        self.perturb(&mut person);
        let label = if want_a { GROUP_A } else { GROUP_OTHER };
        (person, label, outlier)
    }

    /// Applies value-relative perturbation to the quantitative attributes,
    /// clamped to each attribute's domain.
    fn perturb(&mut self, p: &mut Person) {
        let factor = self.config.perturbation;
        if factor == 0.0 {
            return;
        }
        let mut jitter = |v: f64, lo: f64, hi: f64| -> f64 {
            let r: f64 = self.rng.gen_range(-1.0..=1.0);
            (v + r * factor * v).clamp(lo, hi)
        };
        p.salary = jitter(p.salary, 20_000.0, 150_000.0);
        if p.commission > 0.0 {
            p.commission = jitter(p.commission, 0.0, 75_000.0);
        }
        p.age = jitter(p.age, 20.0, 80.0);
        p.hvalue = jitter(p.hvalue, 0.0, 1_350_000.0);
        p.hyears = jitter(p.hyears, 1.0, 30.0);
        p.loan = jitter(p.loan, 0.0, 500_000.0);
    }

    /// Materialises `n` tuples into a [`Dataset`] over
    /// [`agrawal::schema`](crate::agrawal::schema).
    pub fn generate(&mut self, n: usize) -> Dataset {
        let mut ds = Dataset::with_capacity(crate::agrawal::schema(), n);
        for _ in 0..n {
            let (person, label, _) = self.next_person();
            ds.push(&person_values(&person, label)).expect("a generated row fits the schema");
        }
        ds
    }
}

impl Iterator for AgrawalGenerator {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let (person, label, _) = self.next_person();
        Some(person_to_tuple(&person, label))
    }
}

/// Schema for the three-way profitability workload: the nine Agrawal
/// attributes plus a `rating` criterion with the paper's §1 groups
/// ("excellent" / "above_average" / "average").
pub fn three_way_schema() -> crate::schema::Schema {
    let base = crate::agrawal::schema();
    let attributes = base
        .attributes()
        .iter()
        .map(|a| {
            if a.name == "group" {
                crate::schema::Attribute::categorical(
                    "rating",
                    ["excellent", "above_average", "average"],
                )
            } else {
                a.clone()
            }
        })
        .collect();
    crate::schema::Schema::new(attributes).expect("static schema is valid")
}

/// Rates a person for the three-way workload: `0` = "excellent" (the
/// Function 2 disjuncts), `1` = "above average" (the salary band directly
/// above each disjunct), `2` = "average" (everything else). This realises
/// the paper's motivating scenario of grouping customers by profitability
/// with one rectangular region family per rating.
pub fn three_way_rating(p: &Person) -> u32 {
    if AgrawalFunction::F2.classify(p) {
        return 0;
    }
    let above = (p.age < 40.0 && (100_000.0..=125_000.0).contains(&p.salary))
        || ((40.0..60.0).contains(&p.age) && (125_000.0..=150_000.0).contains(&p.salary))
        || (p.age >= 60.0 && (75_000.0..=100_000.0).contains(&p.salary));
    if above {
        1
    } else {
        2
    }
}

/// Generates `n` tuples of the three-way profitability workload with
/// value-relative `perturbation` (see [`GeneratorConfig`]); group
/// fractions are the natural ones induced by the regions.
pub fn generate_three_way(n: usize, perturbation: f64, seed: u64) -> Result<Dataset, DataError> {
    if !(0.0..=1.0).contains(&perturbation) {
        return Err(DataError::InvalidConfig(format!(
            "perturbation {perturbation} outside [0, 1]"
        )));
    }
    // Reuse the binary generator's perturbation machinery with a dummy
    // function; labels are assigned before perturbing.
    let mut inner = AgrawalGenerator::new(GeneratorConfig {
        function: AgrawalFunction::F2,
        frac_group_a: 0.0,
        perturbation,
        outlier_fraction: 0.0,
        seed,
    })?;
    let mut ds = Dataset::with_capacity(three_way_schema(), n);
    for _ in 0..n {
        let mut person = Person::random(&mut inner.rng);
        let rating = three_way_rating(&person);
        inner.perturb(&mut person);
        ds.push(&person_values(&person, rating)).expect("a generated row fits the schema");
    }
    Ok(ds)
}

/// Converts a labelled [`Person`] to a [`Tuple`] positionally matching
/// [`agrawal::schema`](crate::agrawal::schema).
pub fn person_to_tuple(p: &Person, label: u32) -> Tuple {
    Tuple::new(person_values(p, label).to_vec())
}

/// A labelled [`Person`]'s row, positionally matching
/// [`agrawal::schema`](crate::agrawal::schema).
fn person_values(p: &Person, label: u32) -> [Value; 10] {
    let mut values = [Value::Quant(0.0); 10];
    values[attr::SALARY] = Value::Quant(p.salary);
    values[attr::COMMISSION] = Value::Quant(p.commission);
    values[attr::AGE] = Value::Quant(p.age);
    values[attr::ELEVEL] = Value::Cat(p.elevel);
    values[attr::CAR] = Value::Cat(p.car);
    values[attr::ZIPCODE] = Value::Cat(p.zipcode);
    values[attr::HVALUE] = Value::Quant(p.hvalue);
    values[attr::HYEARS] = Value::Quant(p.hyears);
    values[attr::LOAN] = Value::Quant(p.loan);
    values[attr::GROUP] = Value::Cat(label);
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agrawal::{f2_regions, schema};

    #[test]
    fn invalid_configs_rejected() {
        for bad in [
            GeneratorConfig { frac_group_a: 1.5, ..GeneratorConfig::paper_defaults(0) },
            GeneratorConfig { perturbation: -0.1, ..GeneratorConfig::paper_defaults(0) },
            GeneratorConfig { outlier_fraction: 2.0, ..GeneratorConfig::paper_defaults(0) },
        ] {
            assert!(AgrawalGenerator::new(bad).is_err());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || AgrawalGenerator::new(GeneratorConfig::paper_defaults(99)).unwrap();
        let a: Vec<Tuple> = mk().take(50).collect();
        let b: Vec<Tuple> = mk().take(50).collect();
        assert_eq!(a, b);
        let c: Vec<Tuple> =
            AgrawalGenerator::new(GeneratorConfig::paper_defaults(100)).unwrap().take(50).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn group_fraction_close_to_target() {
        let mut g = AgrawalGenerator::new(GeneratorConfig::paper_defaults(7)).unwrap();
        let ds = g.generate(10_000);
        let n_a = ds.cat(attr::GROUP).unwrap().iter().filter(|&&g| g == GROUP_A).count();
        let frac = n_a as f64 / ds.len() as f64;
        assert!((frac - 0.40).abs() < 0.02, "fracA = {frac}");
    }

    #[test]
    fn zero_noise_labels_match_function_exactly() {
        let config = GeneratorConfig {
            perturbation: 0.0,
            outlier_fraction: 0.0,
            ..GeneratorConfig::paper_defaults(3)
        };
        let mut g = AgrawalGenerator::new(config).unwrap();
        for _ in 0..2_000 {
            let (p, label, outlier) = g.next_person();
            assert!(!outlier);
            assert_eq!(
                AgrawalFunction::F2.classify(&p),
                label == GROUP_A,
                "unperturbed label must match the function"
            );
        }
    }

    #[test]
    fn outliers_contradict_the_function() {
        let config = GeneratorConfig {
            perturbation: 0.0,
            outlier_fraction: 0.5, // exaggerated for the test
            ..GeneratorConfig::paper_defaults(5)
        };
        let mut g = AgrawalGenerator::new(config).unwrap();
        let mut n_outliers = 0;
        for _ in 0..2_000 {
            let (p, label, outlier) = g.next_person();
            let function_says_a = AgrawalFunction::F2.classify(&p);
            if outlier {
                n_outliers += 1;
                assert_ne!(function_says_a, label == GROUP_A);
            } else {
                assert_eq!(function_says_a, label == GROUP_A);
            }
        }
        assert!((800..1200).contains(&n_outliers), "n_outliers = {n_outliers}");
    }

    #[test]
    fn perturbation_keeps_values_in_domain() {
        let config = GeneratorConfig { perturbation: 0.20, ..GeneratorConfig::paper_defaults(11) };
        let mut g = AgrawalGenerator::new(config).unwrap();
        for _ in 0..2_000 {
            let (p, _, _) = g.next_person();
            assert!((20_000.0..=150_000.0).contains(&p.salary));
            assert!((20.0..=80.0).contains(&p.age));
            assert!((1.0..=30.0).contains(&p.hyears));
            assert!((0.0..=500_000.0).contains(&p.loan));
        }
    }

    #[test]
    fn perturbation_creates_boundary_violations() {
        // With 5% perturbation some tuples labelled A should fall slightly
        // outside the true F2 regions — the "fuzzy boundaries" the paper
        // wants.
        let mut g = AgrawalGenerator::new(GeneratorConfig::paper_defaults(13)).unwrap();
        let regions = f2_regions();
        let mut violations = 0;
        let n = 5_000;
        for _ in 0..n {
            let (p, label, _) = g.next_person();
            let inside = regions.iter().any(|r| r.contains(p.age, p.salary));
            if (label == GROUP_A) != inside {
                violations += 1;
            }
        }
        assert!(violations > 0, "perturbation produced no fuzzy boundaries");
        assert!(violations < n / 4, "perturbation noise implausibly large: {violations}");
    }

    #[test]
    fn generated_tuples_validate_against_schema() {
        let mut g = AgrawalGenerator::new(GeneratorConfig::paper_defaults(17)).unwrap();
        let s = schema();
        for t in g.by_ref().take(500) {
            Tuple::validated(t.values().to_vec(), &s).expect("generated tuple conforms");
        }
    }

    #[test]
    fn extreme_fractions_work() {
        // All-other and all-A streams still generate (rejection sampling
        // never needs a label it cannot produce).
        let all_other = GeneratorConfig { frac_group_a: 0.0, ..GeneratorConfig::paper_defaults(1) };
        let mut g = AgrawalGenerator::new(all_other).unwrap();
        assert!(g.generate(200).cat(attr::GROUP).unwrap().iter().all(|&g| g == GROUP_OTHER));

        let all_a = GeneratorConfig { frac_group_a: 1.0, ..GeneratorConfig::paper_defaults(1) };
        let mut g = AgrawalGenerator::new(all_a).unwrap();
        assert!(g.generate(200).cat(attr::GROUP).unwrap().iter().all(|&g| g == GROUP_A));
    }

    #[test]
    fn full_outlier_stream_contradicts_the_function_everywhere() {
        let config = GeneratorConfig {
            perturbation: 0.0,
            outlier_fraction: 1.0,
            ..GeneratorConfig::paper_defaults(2)
        };
        let mut g = AgrawalGenerator::new(config).unwrap();
        for _ in 0..300 {
            let (p, label, outlier) = g.next_person();
            assert!(outlier);
            assert_ne!(AgrawalFunction::F2.classify(&p), label == GROUP_A);
        }
    }

    #[test]
    fn three_way_workload_labels_and_schema() {
        let ds = generate_three_way(5_000, 0.0, 3).unwrap();
        assert_eq!(ds.len(), 5_000);
        let schema = ds.schema();
        let rating_idx = schema.require("rating").unwrap();
        let rating = schema.attribute(rating_idx).unwrap();
        assert_eq!(rating.kind.cardinality(), Some(3));
        assert_eq!(rating.label(0), Some("excellent"));
        // Labels are consistent with the rating function (no perturbation).
        let mut counts = [0usize; 3];
        let quant = |idx| ds.quant(idx).unwrap();
        let cat = |idx| ds.cat(idx).unwrap();
        for row in 0..ds.len() {
            let p = Person {
                salary: quant(attr::SALARY)[row],
                commission: quant(attr::COMMISSION)[row],
                age: quant(attr::AGE)[row],
                elevel: cat(attr::ELEVEL)[row],
                car: cat(attr::CAR)[row],
                zipcode: cat(attr::ZIPCODE)[row],
                hvalue: quant(attr::HVALUE)[row],
                hyears: quant(attr::HYEARS)[row],
                loan: quant(attr::LOAN)[row],
            };
            let rating = cat(rating_idx)[row];
            assert_eq!(three_way_rating(&p), rating);
            counts[rating as usize] += 1;
        }
        // All three groups are populated, with "average" the largest.
        assert!(counts.iter().all(|&c| c > 100), "counts = {counts:?}");
        assert!(counts[2] > counts[0] && counts[2] > counts[1]);
    }

    #[test]
    fn three_way_rejects_bad_perturbation() {
        assert!(generate_three_way(10, 2.0, 0).is_err());
    }

    #[test]
    fn generate_materialises_requested_count() {
        let mut g = AgrawalGenerator::new(GeneratorConfig::paper_defaults(19)).unwrap();
        let ds = g.generate(123);
        assert_eq!(ds.len(), 123);
        assert_eq!(ds.schema().arity(), 10);
    }
}
