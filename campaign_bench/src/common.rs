//! What every workload shares: the command-line options, the measured
//! outcome, timed set-up repetitions, the measurement loop, and the
//! verdict bookkeeping that feeds `error_rate`.

use std::time::{Duration, Instant};

use druzhba::dsim::testing::shard_seed;

/// Set-up repetitions before measuring: at least [`SETUP_MIN_REPS`],
/// then more while their total stays under [`SETUP_BUDGET_S`] (at most
/// [`SETUP_MAX_REPS`]), so that a set-up of a millisecond still yields a
/// steady median. One more repetition runs, untimed by the cycle, before
/// every measured cycle: host speed drifts over seconds, and samples
/// spread over the whole run keep the median from reflecting one
/// moment. `setup_s` is the median of all of them.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET_S: f64 = 0.5;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget: cycles start until this much time has passed.
    pub seconds: f64,
    /// Also re-drive the measured cycles through the traced layer calls.
    pub trace: bool,
    /// Worker threads of the campaign runtime (at most the host's cores).
    pub workers: usize,
}

impl Opts {
    /// The seed of unit `i` of the run: independent streams per unit, a
    /// pure function of `(seed, i)`.
    pub fn unit_seed(&self, i: u64) -> u64 {
        shard_seed(self.seed, i)
    }
}

/// A measured run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Work units checked per measured cycle (PHVs, traces, packets or
    /// evaluations, by workload).
    pub cycle_units: Vec<f64>,
    /// Wall time of each measured cycle, in seconds.
    pub cycle_s: Vec<f64>,
    /// Verdicts checked against their known answer.
    pub attempted: u64,
    /// Verdicts that differed from their known answer, plus harness
    /// panics, truncations, and traced verdicts that differed from the
    /// untraced run's.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Share of evaluations detected (mutant hunts only).
    pub detection_rate: Option<f64>,
    /// Wall time of the traced re-drive of the measured cycles (traced
    /// runs only), in seconds.
    pub traced_s: Option<f64>,
    /// Per-evaluation wall times of the traced run, in seconds (mutant
    /// hunts only).
    pub eval_s: Vec<f64>,
}

impl Outcome {
    /// Record one verdict against its known answer.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure that is not one attempted verdict (a harness
    /// error, a truncation, a traced disagreement).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Work per second of each measured cycle.
    pub fn cycle_rates(&self) -> Vec<f64> {
        self.cycle_units
            .iter()
            .zip(&self.cycle_s)
            .map(|(u, s)| u / s)
            .collect()
    }

    /// Measured work per second: the median of the cycle rates.
    pub fn throughput(&self) -> f64 {
        median(&self.cycle_rates())
    }

    /// Wall time of all measured cycles, in seconds.
    pub fn measured_s(&self) -> f64 {
        self.cycle_s.iter().sum()
    }
}

/// One timed set-up repetition.
fn timed_setup<S>(
    out: &mut Outcome,
    setup: &mut impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let start = Instant::now();
    let s = setup()?;
    out.setup_s.push(start.elapsed().as_secs_f64());
    Ok(s)
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPS`]), timing each, and
/// keep the last result. No layer caches across repetitions, so each
/// pays the full set-up cost.
pub fn timed_setups<S>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<S, String> {
    let mut last = timed_setup(out, &mut setup)?;
    while out.setup_s.len() < SETUP_MIN_REPS
        || (out.setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && out.setup_s.len() < SETUP_MAX_REPS)
    {
        last = timed_setup(out, &mut setup)?;
    }
    Ok(last)
}

/// The measurement loop: run `cycle(c)` for c = 0, 1, ... until
/// `opts.seconds` have passed (at least two cycles, so a median exists),
/// recording each cycle's units and wall time, with one more timed
/// `setup` repetition (its result dropped) before each cycle.
pub fn measure<S>(
    opts: &Opts,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<S, String>,
    mut cycle: impl FnMut(usize, &mut Outcome) -> f64,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut c = 0;
    while c < 2 || start.elapsed() < budget {
        drop(timed_setup(out, &mut setup)?);
        let t = Instant::now();
        let units = cycle(c, out);
        out.cycle_s.push(t.elapsed().as_secs_f64());
        out.cycle_units.push(units);
        c += 1;
    }
    Ok(())
}

/// Time the traced re-drive.
pub fn traced<R>(out: &mut Outcome, f: impl FnOnce(&mut Outcome) -> R) -> R {
    let start = Instant::now();
    let r = f(out);
    out.traced_s = Some(start.elapsed().as_secs_f64());
    r
}

/// A seeded permutation of `0..n` (Fisher-Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (shard_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile of `values` (nearest rank).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let p = permutation(12, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_eq!(p, permutation(12, 7));
        assert_ne!(p, permutation(12, 8));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
    }
}
