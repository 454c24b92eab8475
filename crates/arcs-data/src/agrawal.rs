//! The Agrawal et al. synthetic-data model.
//!
//! The paper's evaluation (§4.1) generates tuples with the nine attributes
//! and the classification functions defined in
//! *Agrawal, Imielinski, Swami — "Database Mining: A Performance
//! Perspective", IEEE TKDE 5(6), 1993* (reference \[2\] of the paper). The
//! paper uses **Function 2** (its Figure 8); we implement all ten functions
//! so the harness and examples can exercise workloads of varying complexity.
//!
//! Attribute model (ranges follow the 1993 paper; `hvalue` depends on
//! `zipcode` as in the original):
//!
//! | attribute    | distribution                                            |
//! |--------------|---------------------------------------------------------|
//! | `salary`     | uniform in `[20_000, 150_000]`                          |
//! | `commission` | `0` if `salary >= 75_000`, else uniform `[10_000, 75_000]` |
//! | `age`        | uniform in `[20, 80]`                                   |
//! | `elevel`     | uniform in `{0..=4}`                                    |
//! | `car`        | uniform in `{1..=20}`                                   |
//! | `zipcode`    | uniform in `{0..=8}` (nine zipcodes)                    |
//! | `hvalue`     | uniform in `[0.5k·100_000, 1.5k·100_000]`, `k = zipcode+1` |
//! | `hyears`     | uniform in `[1, 30]`                                    |
//! | `loan`       | uniform in `[0, 500_000]`                               |

use rand::Rng;

use crate::schema::{Attribute, Schema};

/// Index of each Agrawal attribute within [`schema`]. The criterion
/// ("group") attribute is last.
pub mod attr {
    /// `salary`, quantitative.
    pub const SALARY: usize = 0;
    /// `commission`, quantitative.
    pub const COMMISSION: usize = 1;
    /// `age`, quantitative.
    pub const AGE: usize = 2;
    /// `elevel` (education level), categorical `{0..=4}`.
    pub const ELEVEL: usize = 3;
    /// `car` (make of car), categorical `{1..=20}` stored as codes `0..=19`.
    pub const CAR: usize = 4;
    /// `zipcode`, categorical `{0..=8}`.
    pub const ZIPCODE: usize = 5;
    /// `hvalue` (house value), quantitative.
    pub const HVALUE: usize = 6;
    /// `hyears` (years owning the house), quantitative.
    pub const HYEARS: usize = 7;
    /// `loan` (total loan amount), quantitative.
    pub const LOAN: usize = 8;
    /// `group`, the RHS criterion attribute: `A` (code 0) or `other` (1).
    pub const GROUP: usize = 9;
}

/// Code of "Group A" in the `group` attribute.
pub const GROUP_A: u32 = 0;
/// Code of "Group other" in the `group` attribute.
pub const GROUP_OTHER: u32 = 1;

/// The schema shared by all Agrawal workloads: the nine demographic
/// attributes plus the binary `group` criterion attribute.
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::quantitative("salary", 20_000.0, 150_000.0),
        Attribute::quantitative("commission", 0.0, 75_000.0),
        Attribute::quantitative("age", 20.0, 80.0),
        Attribute::categorical("elevel", ["0", "1", "2", "3", "4"]),
        Attribute::categorical("car", (1..=20).map(|i| i.to_string()).collect::<Vec<_>>()),
        Attribute::categorical("zipcode", (0..=8).map(|i| i.to_string()).collect::<Vec<_>>()),
        Attribute::quantitative("hvalue", 0.0, 1_350_000.0),
        Attribute::quantitative("hyears", 1.0, 30.0),
        Attribute::quantitative("loan", 0.0, 500_000.0),
        Attribute::categorical("group", ["A", "other"]),
    ])
    .expect("static Agrawal schema is valid")
}

/// The raw (unlabelled) demographic attributes of one synthetic person.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Person {
    /// Yearly salary.
    pub salary: f64,
    /// Yearly commission; zero when `salary >= 75_000`.
    pub commission: f64,
    /// Age in years.
    pub age: f64,
    /// Education level, `0..=4`.
    pub elevel: u32,
    /// Make of car, code `0..=19`.
    pub car: u32,
    /// Zipcode, code `0..=8`.
    pub zipcode: u32,
    /// House value; correlated with `zipcode`.
    pub hvalue: f64,
    /// Years the house has been owned.
    pub hyears: f64,
    /// Total loan amount.
    pub loan: f64,
}

impl Person {
    /// Draws one person from the attribute model using `rng`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let salary = rng.gen_range(20_000.0..=150_000.0);
        let commission = if salary >= 75_000.0 { 0.0 } else { rng.gen_range(10_000.0..=75_000.0) };
        let age = rng.gen_range(20.0..=80.0);
        let elevel = rng.gen_range(0..=4u32);
        let car = rng.gen_range(0..=19u32);
        let zipcode = rng.gen_range(0..=8u32);
        let k = (zipcode + 1) as f64;
        let hvalue = rng.gen_range(0.5 * k * 100_000.0..=1.5 * k * 100_000.0);
        let hyears = rng.gen_range(1.0..=30.0);
        let loan = rng.gen_range(0.0..=500_000.0);
        Person { salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan }
    }
}

/// The ten classification functions of Agrawal et al. (1993). Each maps a
/// [`Person`] to `true` (Group A) or `false` (Group other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgrawalFunction {
    /// Group A iff `age < 40 || age >= 60`.
    F1,
    /// The paper's Function 2 (its Figure 8): three rectangular
    /// age × salary disjuncts.
    F2,
    /// age × elevel disjuncts.
    F3,
    /// age × elevel × salary disjuncts.
    F4,
    /// age × salary × loan disjuncts.
    F5,
    /// Like F2 but on total income `salary + commission`.
    F6,
    /// Linear disposable-income rule:
    /// `0.67 (salary+commission) - 0.2 loan - 20_000 > 0`.
    F7,
    /// Disposable income with an education deduction:
    /// `0.67 (salary+commission) - 5_000 elevel - 20_000 > 0`.
    F8,
    /// Disposable income with education and loan deductions:
    /// `0.67 (salary+commission) - 5_000 elevel - 0.2 loan - 10_000 > 0`.
    F9,
    /// Disposable income including home equity:
    /// `equity = 0.1 hvalue max(hyears - 20, 0)`;
    /// `0.67 (salary+commission) - 5_000 elevel + 0.2 equity - 10_000 > 0`.
    F10,
}

impl AgrawalFunction {
    /// All ten functions, in order.
    pub const ALL: [AgrawalFunction; 10] = [
        AgrawalFunction::F1,
        AgrawalFunction::F2,
        AgrawalFunction::F3,
        AgrawalFunction::F4,
        AgrawalFunction::F5,
        AgrawalFunction::F6,
        AgrawalFunction::F7,
        AgrawalFunction::F8,
        AgrawalFunction::F9,
        AgrawalFunction::F10,
    ];

    /// Evaluates the function: `true` means the person belongs to Group A.
    pub fn classify(&self, p: &Person) -> bool {
        use AgrawalFunction::*;
        match self {
            F1 => p.age < 40.0 || p.age >= 60.0,
            F2 => {
                (p.age < 40.0 && (50_000.0..=100_000.0).contains(&p.salary))
                    || ((40.0..60.0).contains(&p.age) && (75_000.0..=125_000.0).contains(&p.salary))
                    || (p.age >= 60.0 && (25_000.0..=75_000.0).contains(&p.salary))
            }
            F3 => {
                (p.age < 40.0 && p.elevel <= 1)
                    || ((40.0..60.0).contains(&p.age) && (1..=3).contains(&p.elevel))
                    || (p.age >= 60.0 && (2..=4).contains(&p.elevel))
            }
            F4 => {
                if p.age < 40.0 {
                    if p.elevel <= 1 {
                        (25_000.0..=75_000.0).contains(&p.salary)
                    } else {
                        (50_000.0..=100_000.0).contains(&p.salary)
                    }
                } else if p.age < 60.0 {
                    if (1..=3).contains(&p.elevel) {
                        (50_000.0..=100_000.0).contains(&p.salary)
                    } else {
                        (75_000.0..=125_000.0).contains(&p.salary)
                    }
                } else if (2..=4).contains(&p.elevel) {
                    (50_000.0..=100_000.0).contains(&p.salary)
                } else {
                    (25_000.0..=75_000.0).contains(&p.salary)
                }
            }
            F5 => {
                if p.age < 40.0 {
                    if (50_000.0..=100_000.0).contains(&p.salary) {
                        (100_000.0..=300_000.0).contains(&p.loan)
                    } else {
                        (200_000.0..=400_000.0).contains(&p.loan)
                    }
                } else if p.age < 60.0 {
                    if (75_000.0..=125_000.0).contains(&p.salary) {
                        (200_000.0..=400_000.0).contains(&p.loan)
                    } else {
                        (300_000.0..=500_000.0).contains(&p.loan)
                    }
                } else if (25_000.0..=75_000.0).contains(&p.salary) {
                    (300_000.0..=500_000.0).contains(&p.loan)
                } else {
                    (100_000.0..=300_000.0).contains(&p.loan)
                }
            }
            F6 => {
                let income = p.salary + p.commission;
                (p.age < 40.0 && (50_000.0..=100_000.0).contains(&income))
                    || ((40.0..60.0).contains(&p.age) && (75_000.0..=125_000.0).contains(&income))
                    || (p.age >= 60.0 && (25_000.0..=75_000.0).contains(&income))
            }
            F7 => 0.67 * (p.salary + p.commission) - 0.2 * p.loan - 20_000.0 > 0.0,
            F8 => 0.67 * (p.salary + p.commission) - 5_000.0 * p.elevel as f64 - 20_000.0 > 0.0,
            F9 => {
                0.67 * (p.salary + p.commission)
                    - 5_000.0 * p.elevel as f64
                    - 0.2 * p.loan
                    - 10_000.0
                    > 0.0
            }
            F10 => {
                let equity = 0.1 * p.hvalue * (p.hyears - 20.0).max(0.0);
                0.67 * (p.salary + p.commission) - 5_000.0 * p.elevel as f64 + 0.2 * equity
                    - 10_000.0
                    > 0.0
            }
        }
    }
}

/// An axis-aligned rectangle in raw (unbinned) attribute space, used to
/// state the *true* region of a generating function so experiments can
/// compute exact false-positive / false-negative areas (paper Figure 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region2D {
    /// Inclusive lower bound on the x attribute.
    pub x_lo: f64,
    /// Inclusive upper bound on the x attribute.
    pub x_hi: f64,
    /// Inclusive lower bound on the y attribute.
    pub y_lo: f64,
    /// Inclusive upper bound on the y attribute.
    pub y_hi: f64,
}

impl Region2D {
    /// Whether the point `(x, y)` lies inside the region.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        (self.x_lo..=self.x_hi).contains(&x) && (self.y_lo..=self.y_hi).contains(&y)
    }
}

/// The three true (age, salary) disjunct rectangles of Function 2 — the
/// "optimal segmentation" the paper's §3.6 measures against. `x` is age,
/// `y` is salary.
pub fn f2_regions() -> [Region2D; 3] {
    [
        Region2D { x_lo: 20.0, x_hi: 40.0, y_lo: 50_000.0, y_hi: 100_000.0 },
        Region2D { x_lo: 40.0, x_hi: 60.0, y_lo: 75_000.0, y_hi: 125_000.0 },
        Region2D { x_lo: 60.0, x_hi: 80.0, y_lo: 25_000.0, y_hi: 75_000.0 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn person(age: f64, salary: f64) -> Person {
        Person {
            salary,
            commission: 0.0,
            age,
            elevel: 0,
            car: 0,
            zipcode: 0,
            hvalue: 100_000.0,
            hyears: 10.0,
            loan: 0.0,
        }
    }

    #[test]
    fn schema_is_valid_and_ordered() {
        let s = schema();
        assert_eq!(s.arity(), 10);
        assert_eq!(s.index_of("salary"), Some(attr::SALARY));
        assert_eq!(s.index_of("age"), Some(attr::AGE));
        assert_eq!(s.index_of("group"), Some(attr::GROUP));
        assert_eq!(s.attribute(attr::GROUP).unwrap().label(GROUP_A), Some("A"));
    }

    #[test]
    fn f1_splits_on_age_only() {
        assert!(AgrawalFunction::F1.classify(&person(25.0, 0.0)));
        assert!(AgrawalFunction::F1.classify(&person(65.0, 0.0)));
        assert!(!AgrawalFunction::F1.classify(&person(50.0, 0.0)));
        // Boundary: age exactly 40 is not < 40; age exactly 60 is >= 60.
        assert!(!AgrawalFunction::F1.classify(&person(40.0, 0.0)));
        assert!(AgrawalFunction::F1.classify(&person(60.0, 0.0)));
    }

    #[test]
    fn f2_matches_its_three_disjuncts() {
        let f = AgrawalFunction::F2;
        assert!(f.classify(&person(30.0, 75_000.0)));
        assert!(f.classify(&person(50.0, 100_000.0)));
        assert!(f.classify(&person(70.0, 50_000.0)));
        // Wrong salary band for the age band.
        assert!(!f.classify(&person(30.0, 120_000.0)));
        assert!(!f.classify(&person(50.0, 50_000.0)));
        assert!(!f.classify(&person(70.0, 100_000.0)));
    }

    #[test]
    fn f2_agrees_with_f2_regions() {
        let mut rng = StdRng::seed_from_u64(7);
        let regions = f2_regions();
        for _ in 0..5_000 {
            let p = Person::random(&mut rng);
            let in_region = regions.iter().any(|r| r.contains(p.age, p.salary));
            assert_eq!(AgrawalFunction::F2.classify(&p), in_region, "at {p:?}");
        }
    }

    #[test]
    fn f3_uses_elevel_bands() {
        let mut p = person(30.0, 0.0);
        p.elevel = 1;
        assert!(AgrawalFunction::F3.classify(&p));
        p.elevel = 3;
        assert!(!AgrawalFunction::F3.classify(&p));
        p.age = 70.0;
        assert!(AgrawalFunction::F3.classify(&p));
        p.elevel = 0;
        assert!(!AgrawalFunction::F3.classify(&p));
    }

    #[test]
    fn f4_nests_salary_inside_age_elevel() {
        let mut p = person(30.0, 50_000.0);
        p.elevel = 0;
        assert!(AgrawalFunction::F4.classify(&p)); // 25k..75k band
        p.salary = 90_000.0;
        assert!(!AgrawalFunction::F4.classify(&p));
        p.elevel = 3;
        assert!(AgrawalFunction::F4.classify(&p)); // 50k..100k band
    }

    #[test]
    fn f5_nests_loan_inside_age_salary() {
        let mut p = person(30.0, 75_000.0);
        p.loan = 200_000.0;
        assert!(AgrawalFunction::F5.classify(&p));
        p.loan = 450_000.0;
        assert!(!AgrawalFunction::F5.classify(&p));
        p.salary = 120_000.0; // off-band salary -> loan 200k..400k
        assert!(!AgrawalFunction::F5.classify(&p));
        p.loan = 300_000.0;
        assert!(AgrawalFunction::F5.classify(&p));
    }

    #[test]
    fn f6_uses_total_income() {
        let mut p = person(30.0, 40_000.0);
        p.commission = 20_000.0; // income 60k, in 50k..100k
        assert!(AgrawalFunction::F6.classify(&p));
        p.commission = 0.0; // income 40k, below band
        assert!(!AgrawalFunction::F6.classify(&p));
    }

    #[test]
    fn linear_functions_threshold_correctly() {
        let mut p = person(30.0, 100_000.0);
        assert!(AgrawalFunction::F7.classify(&p)); // 67k - 20k > 0
        p.loan = 300_000.0;
        assert!(!AgrawalFunction::F7.classify(&p)); // 67k - 60k - 20k < 0

        p = person(30.0, 100_000.0);
        p.elevel = 4;
        assert!(AgrawalFunction::F8.classify(&p)); // 67k - 20k - 20k > 0
        p.salary = 50_000.0;
        assert!(!AgrawalFunction::F8.classify(&p));

        p = person(30.0, 60_000.0);
        p.elevel = 2;
        p.loan = 100_000.0;
        // 40.2k - 10k - 20k - 10k > 0
        assert!(AgrawalFunction::F9.classify(&p));
        p.loan = 160_000.0;
        assert!(!AgrawalFunction::F9.classify(&p));
    }

    #[test]
    fn f10_counts_home_equity_only_after_20_years() {
        let mut p = person(30.0, 20_000.0);
        p.elevel = 4;
        p.hvalue = 500_000.0;
        p.hyears = 10.0; // under 20 years: no equity
        assert!(!AgrawalFunction::F10.classify(&p)); // 13.4k - 20k - 10k < 0
        p.hyears = 30.0; // equity = 0.1 * 500k * 10 = 500k; +0.2 * 500k = 100k
        assert!(AgrawalFunction::F10.classify(&p));
    }

    #[test]
    fn person_random_respects_domains() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2_000 {
            let p = Person::random(&mut rng);
            assert!((20_000.0..=150_000.0).contains(&p.salary));
            if p.salary >= 75_000.0 {
                assert_eq!(p.commission, 0.0);
            } else {
                assert!((10_000.0..=75_000.0).contains(&p.commission));
            }
            assert!((20.0..=80.0).contains(&p.age));
            assert!(p.elevel <= 4);
            assert!(p.car <= 19);
            assert!(p.zipcode <= 8);
            let k = (p.zipcode + 1) as f64;
            assert!((0.5 * k * 100_000.0..=1.5 * k * 100_000.0).contains(&p.hvalue));
            assert!((1.0..=30.0).contains(&p.hyears));
            assert!((0.0..=500_000.0).contains(&p.loan));
        }
    }

    #[test]
    fn every_function_is_satisfiable_and_refutable() {
        let mut rng = StdRng::seed_from_u64(1);
        for f in AgrawalFunction::ALL {
            let mut saw_a = false;
            let mut saw_other = false;
            for _ in 0..20_000 {
                let p = Person::random(&mut rng);
                if f.classify(&p) {
                    saw_a = true;
                } else {
                    saw_other = true;
                }
                if saw_a && saw_other {
                    break;
                }
            }
            assert!(saw_a, "{f:?} never produced Group A");
            assert!(saw_other, "{f:?} never produced Group other");
        }
    }
}
