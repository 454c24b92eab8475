//! Information-theoretic measures.
//!
//! The paper's future-work section (§5) suggests applying measures of
//! information gain (entropy) when choosing the two LHS attributes for
//! segmentation; `arcs-core::select` builds on the primitives here, and
//! the C4.5 baseline scores its splits with [`entropy`].

/// Shannon entropy (bits) of a discrete distribution given as counts.
/// Zero counts contribute nothing; an empty or all-zero histogram has
/// entropy 0.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Mutual information (bits) between two discretised variables, given a
/// joint histogram `joint[x][y]`.
pub fn mutual_information(joint: &[Vec<usize>]) -> f64 {
    let total: usize = joint.iter().map(|row| row.iter().sum::<usize>()).sum();
    if total == 0 {
        return 0.0;
    }
    let nx = joint.len();
    let ny = joint.first().map_or(0, Vec::len);
    let mut px = vec![0usize; nx];
    let mut py = vec![0usize; ny];
    for (x, row) in joint.iter().enumerate() {
        for (y, &c) in row.iter().enumerate() {
            px[x] += c;
            py[y] += c;
        }
    }
    let n = total as f64;
    let mut mi = 0.0;
    for (x, row) in joint.iter().enumerate() {
        for (y, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let pxy = c as f64 / n;
            let pxm = px[x] as f64 / n;
            let pym = py[y] as f64 / n;
            mi += pxy * (pxy / (pxm * pym)).log2();
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_uniform_and_degenerate() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0, 0]), 0.0);
        assert_eq!(entropy(&[10]), 0.0);
        assert!((entropy(&[5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        // Skewed distribution has entropy strictly between 0 and 1.
        let h = entropy(&[9, 1]);
        assert!(h > 0.0 && h < 1.0);
    }

    #[test]
    fn mutual_information_extremes() {
        // Perfectly dependent: MI = H = 1 bit.
        let dependent = vec![vec![5, 0], vec![0, 5]];
        assert!((mutual_information(&dependent) - 1.0).abs() < 1e-12);

        // Independent: MI = 0.
        let independent = vec![vec![25, 25], vec![25, 25]];
        assert!(mutual_information(&independent).abs() < 1e-12);

        // Empty: 0.
        assert_eq!(mutual_information(&[]), 0.0);
        assert_eq!(mutual_information(&[vec![0, 0]]), 0.0);
    }

    #[test]
    fn mutual_information_monotone_in_dependence() {
        let strong = vec![vec![40, 10], vec![10, 40]];
        let weak = vec![vec![30, 20], vec![20, 30]];
        assert!(mutual_information(&strong) > mutual_information(&weak));
    }
}
