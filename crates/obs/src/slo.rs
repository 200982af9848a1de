//! Integer-permille SLO policy and the multi-window burn-rate monitor.
//!
//! All arithmetic is integer (permille of the error budget), so SLO
//! verdicts are byte-deterministic and shard-fold-stable — no floats
//! ever reach an export.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::window::Window;

/// Per-tenant service-level state for one window. Ordered so that
/// `max` picks the worst state when windows fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Burn rates below the warn threshold.
    Ok,
    /// Short- or long-window burn at or above the warn threshold.
    Warn,
    /// Short-window burn at or above the page threshold, confirmed by
    /// a long-window burn at or above the warn threshold (the classic
    /// fast-burn + slow-confirmation pairing, so a single noisy window
    /// cannot page on its own).
    Page,
}

impl SloState {
    /// Stable lowercase name (export key).
    pub fn name(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Page => "page",
        }
    }
}

// The SLO targets and burn-rate thresholds every timeline is judged
// against, calibrated to the committed `ne-load` baseline: a clean
// closed-loop run's p99 sits around 0.7M cycles, so a 1M-cycle latency
// target plus a 99.0% availability target make clean runs quiet and
// chaos runs loud.

/// End-to-end latency target in simulated cycles; a completion above
/// this is an SLO violation.
pub const LATENCY_TARGET: u64 = 1_000_000;
/// Availability target in permille of terminated requests (990 =
/// 99.0%; the error budget is the permille remainder).
pub const AVAILABILITY_PERMILLE: u64 = 990;
/// Long-window lookback length, in windows, for the slow burn
/// confirmation.
pub const LONG_WINDOWS: usize = 6;
/// Warn when either burn rate reaches this (1000 = consuming the error
/// budget exactly at the sustainable rate).
pub const WARN_BURN: u64 = 1_000;
/// Page when the short burn reaches this and the long burn confirms at
/// [`WARN_BURN`].
pub const PAGE_BURN: u64 = 10_000;

/// The error budget in permille of terminated requests.
const BUDGET_PERMILLE: u64 = 1_000 - AVAILABILITY_PERMILLE;

/// Burn rate for `bad` SLO-bad outcomes out of `total` terminated
/// requests, in permille of the error budget consumption rate: 1000
/// means errors arrive exactly at the budgeted rate, 10_000 means ten
/// times over budget. Zero traffic burns nothing.
pub fn burn(bad: u64, total: u64) -> u64 {
    bad.saturating_mul(1_000_000)
        .checked_div(total)
        .unwrap_or(0)
        / BUDGET_PERMILLE
}

/// The verdict for a (short, long) burn-rate pair.
pub fn state(burn_short: u64, burn_long: u64) -> SloState {
    if burn_short >= PAGE_BURN && burn_long >= WARN_BURN {
        SloState::Page
    } else if burn_short >= WARN_BURN || burn_long >= WARN_BURN {
        SloState::Warn
    } else {
        SloState::Ok
    }
}

/// Evaluates the burn-rate monitor over a window sequence in index
/// order, writing the verdict into every tenant row. The long window
/// is a trailing sum over the last [`LONG_WINDOWS`] windows including
/// the current one; windows where a tenant has no traffic count as
/// zero-burn windows in its lookback.
pub fn annotate(windows: &mut [Window]) {
    let mut trailing: BTreeMap<usize, VecDeque<(u64, u64)>> = BTreeMap::new();
    for w in windows.iter() {
        for row in &w.tenants {
            trailing.entry(row.tenant).or_default();
        }
    }
    for w in windows.iter_mut() {
        for (tenant, deque) in trailing.iter_mut() {
            let (bad, total) = w
                .tenants
                .iter()
                .find(|r| r.tenant == *tenant)
                .map(|r| (r.bad(), r.total()))
                .unwrap_or((0, 0));
            deque.push_back((bad, total));
            while deque.len() > LONG_WINDOWS {
                deque.pop_front();
            }
            if let Some(row) = w.tenants.iter_mut().find(|r| r.tenant == *tenant) {
                let (lb, lt) = deque
                    .iter()
                    .fold((0u64, 0u64), |(b, t), &(db, dt)| (b + db, t + dt));
                row.burn_short = burn(bad, total);
                row.burn_long = burn(lb, lt);
                row.slo = state(row.burn_short, row.burn_long);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{TenantWindow, Window};

    #[test]
    fn burn_rates_are_integer_permille_of_budget() {
        // The error budget is 10 permille.
        assert_eq!(burn(0, 100), 0);
        // 1 bad in 100 = 10 permille error rate = exactly on budget.
        assert_eq!(burn(1, 100), 1_000);
        // All bad = 1000 permille = 100x budget.
        assert_eq!(burn(50, 50), 100_000);
        assert_eq!(burn(5, 0), 0);
    }

    #[test]
    fn page_needs_fast_burn_plus_slow_confirmation() {
        assert_eq!(state(0, 0), SloState::Ok);
        assert_eq!(state(1_000, 0), SloState::Warn);
        assert_eq!(state(0, 1_000), SloState::Warn);
        // Fast burn without slow confirmation stays at warn.
        assert_eq!(state(10_000, 999), SloState::Warn);
        assert_eq!(state(10_000, 1_000), SloState::Page);
    }

    fn window_with(index: u64, tenant: usize, completed: u64, shed: u64) -> Window {
        let mut w = Window::new(index);
        let mut row = TenantWindow::new(tenant);
        row.traffic.completed = completed;
        row.traffic.shed_requests = shed;
        w.tenants.push(row);
        w
    }

    #[test]
    fn annotate_walks_the_trailing_window() {
        // Window 0 clean, then quiet windows, then a total outage in the
        // last window whose lookback still reaches window 0, then a
        // clean window whose lookback no longer does.
        let outage_at = LONG_WINDOWS - 1;
        let mut ws = vec![window_with(0, 0, 100, 0)];
        for i in 1..outage_at {
            ws.push(window_with(i as u64, 0, 0, 0));
        }
        ws.push(window_with(outage_at as u64, 0, 0, 50));
        ws.push(window_with(LONG_WINDOWS as u64, 0, 100, 0));
        annotate(&mut ws);
        assert_eq!(ws[0].tenants[0].slo, SloState::Ok);
        let outage = &ws[outage_at].tenants[0];
        assert_eq!(outage.burn_short, 100_000);
        // Long window spans windows 0..=outage: 50 bad of 150 total.
        assert_eq!(outage.burn_long, 33_333);
        assert_eq!(outage.slo, SloState::Page);
        // The window after the outage still warns through the lookback,
        // which has dropped window 0: 50 bad of 150 total again.
        let after = &ws[LONG_WINDOWS].tenants[0];
        assert_eq!(after.burn_short, 0);
        assert_eq!(after.burn_long, 33_333);
        assert_eq!(after.slo, SloState::Warn);
    }
}
