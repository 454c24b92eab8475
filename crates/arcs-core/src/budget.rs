//! Resource governor: memory budgeting and graceful degradation.
//!
//! The paper's premise is a one-pass system whose memory footprint is the
//! `BinArray`, independent of the number of tuples (§4.3). That only
//! holds if the *grid itself* is admitted responsibly: `nx * ny *
//! (nseg + 1)` counters can silently dwarf a machine when bin counts or
//! group cardinality are data-driven. This module provides
//!
//! * checked sizing arithmetic ([`grid_bytes`]) that reports
//!   [`ArcsError::GridTooLarge`] instead of overflowing, and
//! * a degradation planner ([`plan_bins`]) that coarsens the requested
//!   grid — halving the larger axis, one step at a time — until it fits
//!   the budget, mirroring the pipeline's existing threshold degradation
//!   ladder: a coarser answer beats an OOM abort.
//!
//! The budget governs the dominant allocation (the `BinArray` counters);
//! scratch grids and per-worker shards are small multiples of it and are
//! covered by the same admission decision.

use crate::error::ArcsError;

/// Coarsest acceptable per-axis bin count: below 2 bins an axis can no
/// longer distinguish *any* structure, so the planner refuses to go
/// further and reports [`ArcsError::BudgetExceeded`] instead.
pub const MIN_BINS: usize = 2;

/// Bytes of counter storage a [`BinArray`](crate::BinArray) with the
/// given dimensions would allocate: `nx * ny * (nseg + 1)` cells of
/// `u32`. All arithmetic is checked; overflow reports
/// [`ArcsError::GridTooLarge`].
pub fn grid_bytes(nx: usize, ny: usize, nseg: usize) -> Result<usize, ArcsError> {
    let too_large = || ArcsError::GridTooLarge { nx, ny, nseg };
    nseg.checked_add(1)
        .and_then(|slots| nx.checked_mul(ny)?.checked_mul(slots))
        .and_then(|cells| cells.checked_mul(std::mem::size_of::<u32>()))
        .ok_or_else(too_large)
}

/// The outcome of planning a grid under a memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinPlan {
    /// Planned number of x bins (≤ the requested count).
    pub nx: usize,
    /// Planned number of y bins (≤ the requested count).
    pub ny: usize,
    /// How many halving steps were taken; `0` means the request was
    /// admitted as-is.
    pub coarsening_steps: u32,
}

/// Plans bin counts for an `nx × ny` grid with `nseg` groups under an
/// optional memory budget.
///
/// With no budget the request is returned unchanged (sizing is still
/// checked, so an unrepresentable grid reports
/// [`ArcsError::GridTooLarge`]). With a budget, the larger axis is halved
/// — deterministically, ties going to x — until the counter storage fits,
/// with a floor of [`MIN_BINS`] per axis. If even the `MIN_BINS ×
/// MIN_BINS` grid exceeds the budget, the request is refused with
/// [`ArcsError::BudgetExceeded`]: no useful grid exists at that size.
pub fn plan_bins(
    nx: usize,
    ny: usize,
    nseg: usize,
    budget_bytes: Option<usize>,
) -> Result<BinPlan, ArcsError> {
    let Some(budget) = budget_bytes else {
        grid_bytes(nx, ny, nseg)?;
        return Ok(BinPlan { nx, ny, coarsening_steps: 0 });
    };
    let mut plan = BinPlan { nx, ny, coarsening_steps: 0 };
    loop {
        // An overflowing size certainly exceeds any usize budget: keep
        // coarsening rather than bailing out early.
        let fits = matches!(grid_bytes(plan.nx, plan.ny, nseg), Ok(bytes) if bytes <= budget);
        if fits {
            return Ok(plan);
        }
        if plan.nx <= MIN_BINS && plan.ny <= MIN_BINS {
            let required_bytes = grid_bytes(MIN_BINS, MIN_BINS, nseg)?;
            return Err(ArcsError::BudgetExceeded { required_bytes, budget_bytes: budget });
        }
        if plan.nx >= plan.ny {
            plan.nx = (plan.nx / 2).max(MIN_BINS);
        } else {
            plan.ny = (plan.ny / 2).max(MIN_BINS);
        }
        plan.coarsening_steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_bytes_is_checked() {
        assert_eq!(grid_bytes(50, 50, 1).unwrap(), 50 * 50 * 2 * 4);
        let err = grid_bytes(usize::MAX, usize::MAX, 3).unwrap_err();
        assert!(matches!(err, ArcsError::GridTooLarge { .. }), "{err:?}");
        let err = grid_bytes(1, 1, usize::MAX).unwrap_err();
        assert!(matches!(err, ArcsError::GridTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn plan_without_budget_is_identity() {
        let plan = plan_bins(50, 50, 2, None).unwrap();
        assert_eq!(plan, BinPlan { nx: 50, ny: 50, coarsening_steps: 0 });
        assert!(plan_bins(usize::MAX, 2, 2, None).is_err());
    }

    #[test]
    fn plan_halves_larger_axis_until_fit() {
        // 50x50 with 1 group = 20_000 bytes; budget 6_000 forces halving.
        let plan = plan_bins(50, 50, 1, Some(6_000)).unwrap();
        assert!(grid_bytes(plan.nx, plan.ny, 1).unwrap() <= 6_000);
        // Halving is deterministic: 50x50 -> 25x50 -> 25x25 (fits: 5000).
        assert_eq!((plan.nx, plan.ny), (25, 25));
        assert_eq!(plan.coarsening_steps, 2);
    }

    #[test]
    fn plan_is_deterministic_and_tie_breaks_to_x() {
        let a = plan_bins(64, 64, 3, Some(10_000)).unwrap();
        let b = plan_bins(64, 64, 3, Some(10_000)).unwrap();
        assert_eq!(a, b);
        // 8x8 with 1 group = 512 bytes; a 511-byte budget forces exactly
        // one halving, and the tie goes to the x axis.
        let one = plan_bins(8, 8, 1, Some(511)).unwrap();
        assert_eq!(one, BinPlan { nx: 4, ny: 8, coarsening_steps: 1 });
    }

    #[test]
    fn plan_refuses_impossible_budget() {
        let err = plan_bins(50, 50, 4, Some(8)).unwrap_err();
        match err {
            ArcsError::BudgetExceeded { required_bytes, budget_bytes } => {
                assert_eq!(required_bytes, grid_bytes(MIN_BINS, MIN_BINS, 4).unwrap());
                assert_eq!(budget_bytes, 8);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn plan_floors_at_min_bins() {
        // Budget admits exactly the 2x2 grid.
        let floor = grid_bytes(MIN_BINS, MIN_BINS, 1).unwrap();
        let plan = plan_bins(1000, 1000, 1, Some(floor)).unwrap();
        assert_eq!((plan.nx, plan.ny), (MIN_BINS, MIN_BINS));
        assert!(plan.coarsening_steps > 0);
    }
}
