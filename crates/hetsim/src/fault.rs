//! Deterministic fault-injection plans.
//!
//! Both execution engines accept a [`FaultPlan`]: a list of faults that
//! fire when a unit *attempts* a task, keyed by the per-unit attempt
//! index (0-based, counting every dispatch including engine retries).
//! Attempt-count triggering — rather than wall-clock — keeps chaos tests
//! deterministic under arbitrary machine load, mirroring how
//! `HostPerturbation` triggers QoS drift by completed-task count.
//!
//! The plan lives in this crate so the simulator, the real-thread host
//! engine, and the bench CLI can share one vocabulary of failure:
//!
//! * [`FaultKind::PanicOnAttempt`] — the kernel panics on one specific
//!   attempt (a crashing block).
//! * [`FaultKind::FlakyUntil`] — the kernel panics on every attempt until
//!   the unit has tried `attempts` tasks, then runs healthy (a flaky unit
//!   that recovers).
//! * [`FaultKind::Delay`] — a fixed extra delay per attempt over an
//!   attempt window (a slow or hung kernel; long delays exercise the
//!   host watchdog's deadline path).
//! * [`FaultKind::RandomDelay`] — like `Delay` but with a seeded,
//!   hash-derived duration per attempt, still fully deterministic.
//!
//! The elastic-capacity extension adds two non-failure dimensions:
//!
//! * [`FaultKind::Join`] — the unit is *latent* at run start and joins
//!   the cluster after a number of globally completed tasks (hot-join).
//!   Join triggers are keyed by completed-task count, not attempts,
//!   because a latent unit has no attempts yet.
//! * [`FaultKind::DriftRamp`] / [`FaultKind::DriftStep`] /
//!   [`FaultKind::DriftSinusoid`] — deterministic per-unit speed-drift
//!   schedules: a multiplicative slowdown factor evaluated per attempt
//!   (on top of the cluster's `NoiseGen` timing noise), emulating a
//!   contended node whose effective speed changes over the run.
//!
//! The cluster tier's [`NodeFaultPlan`] is the second scope. Both plans
//! parse the same way — tokenize, build (syntax only), then `validate`,
//! which holds every rule of its scope once — and both reject with one
//! [`FaultSpecError`].

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

/// What a rule check returns.
type Checked = Result<(), FaultSpecError>;

/// One fault bound to one processing unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Unit index the fault applies to.
    pub pu: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Kinds of injectable fault. Attempt indices are 0-based and count
/// every dispatch to the unit, including engine-driven retries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum FaultKind {
    /// The kernel panics on exactly the `nth` attempt.
    PanicOnAttempt {
        /// 0-based attempt index that panics.
        nth: u64,
    },
    /// The kernel panics on attempts `0..attempts`, then runs healthy.
    FlakyUntil {
        /// Number of leading attempts that panic.
        attempts: u64,
    },
    /// Each attempt in `from..from + attempts` takes `seconds` longer.
    Delay {
        /// First affected attempt index.
        from: u64,
        /// Number of affected attempts.
        attempts: u64,
        /// Extra seconds injected per attempt.
        seconds: f64,
    },
    /// Each attempt in `from..from + attempts` takes a deterministic
    /// pseudo-random extra duration in `[0, max_seconds)`, derived by
    /// hashing `(seed, pu, attempt)`.
    RandomDelay {
        /// First affected attempt index.
        from: u64,
        /// Number of affected attempts.
        attempts: u64,
        /// Exclusive upper bound on the injected delay, seconds.
        max_seconds: f64,
        /// Hash seed; the same seed always yields the same delays.
        seed: u64,
    },
    /// The unit is latent at run start and joins the cluster once
    /// `after_tasks` tasks have completed globally (hot-join). A unit
    /// can join at most once per plan.
    Join {
        /// Global completed-task count that admits the unit.
        after_tasks: u64,
    },
    /// Slowdown factor ramps linearly from 1.0 toward `to` across
    /// attempts `from..from + attempts`, then holds at `to`.
    DriftRamp {
        /// First affected attempt index.
        from: u64,
        /// Attempts the ramp is spread over.
        attempts: u64,
        /// Final slowdown factor (1.0 = nominal; > 1 slows the unit).
        to: f64,
    },
    /// Stepwise slowdown schedule: from each `(attempt, factor)`
    /// breakpoint on, the factor holds until the next breakpoint.
    /// Breakpoint attempts must be strictly increasing.
    DriftStep {
        /// `(attempt, factor)` breakpoints in ascending attempt order.
        points: Vec<(u64, f64)>,
    },
    /// Sinusoidal slowdown oscillation from attempt `from` on:
    /// `factor = 1 + amplitude · sin(2π·(attempt − from)/period)`.
    DriftSinusoid {
        /// First affected attempt index.
        from: u64,
        /// Oscillation period in attempts (≥ 2).
        period: u64,
        /// Oscillation amplitude, in `(0, 1)` so the factor stays
        /// positive.
        amplitude: f64,
    },
}

/// Inclusive bounds a drift slowdown factor must lie within — outside
/// this range a "drift" is really a failure (or a time machine) and
/// [`FaultPlan::validate`] rejects it.
pub const DRIFT_FACTOR_RANGE: (f64, f64) = (0.01, 100.0);

/// What a unit must do on a given attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The kernel panics (after any injected delay is ignored: panic
    /// wins over delay when both match).
    Panic,
    /// The kernel takes this many extra seconds.
    Delay(f64),
}

/// A deterministic fault-injection plan: any number of faults over any
/// units. Empty plans are free — engines consult the plan only when it
/// holds faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injected faults, in no particular order.
    pub faults: Vec<Fault>,
}

/// SplitMix64: tiny, deterministic, dependency-free hash for
/// [`FaultKind::RandomDelay`] and the chaos generators.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The seeded stream every chaos generator draws from: SplitMix64
/// iterated from `seed ^ salt`, one salt per generator so each keeps
/// its own stream.
struct ChaosStream(u64);

impl ChaosStream {
    fn new(seed: u64, salt: u64) -> ChaosStream {
        ChaosStream(splitmix64(seed ^ salt))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// A target in `1..n` (`n ≥ 2`): chaos never touches unit or node
    /// 0, so a run under any chaos plan can still make progress.
    fn victim(&mut self, n: usize) -> usize {
        1 + (self.next() as usize % (n - 1))
    }
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Build a plan from a fault list (call [`validate`](Self::validate)
    /// before trusting a hand-built one).
    pub fn new(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { faults }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The action unit `pu` must take on its `attempt`-th dispatch
    /// (`None` = run normally). Panics win over delays; multiple
    /// matching delays sum.
    pub fn action(&self, pu: usize, attempt: u64) -> Option<FaultAction> {
        let mut delay = 0.0f64;
        for f in self.faults.iter().filter(|f| f.pu == pu) {
            let inside = f
                .kind
                .window()
                .is_some_and(|(from, n)| attempt >= from && attempt - from < n);
            match f.kind {
                FaultKind::PanicOnAttempt { nth } if attempt == nth => {
                    return Some(FaultAction::Panic)
                }
                FaultKind::FlakyUntil { .. } if inside => return Some(FaultAction::Panic),
                FaultKind::Delay { seconds, .. } if inside && seconds > 0.0 => delay += seconds,
                FaultKind::RandomDelay {
                    max_seconds, seed, ..
                } if inside && max_seconds > 0.0 => {
                    let h = splitmix64(
                        seed ^ splitmix64(((pu as u64) << 32) | (attempt & 0xffff_ffff)),
                    );
                    // 53 high bits -> uniform f64 in [0, 1).
                    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                    delay += unit * max_seconds;
                }
                // Joins and drift schedules are not attempt actions:
                // they are queried through `joins` and `drift_factor`.
                _ => {}
            }
        }
        if delay > 0.0 {
            Some(FaultAction::Delay(delay))
        } else {
            None
        }
    }

    /// The multiplicative slowdown factor unit `pu` runs at on its
    /// `attempt`-th dispatch (1.0 = nominal). Multiple matching drift
    /// schedules compose by multiplication.
    pub fn drift_factor(&self, pu: usize, attempt: u64) -> f64 {
        let mut factor = 1.0f64;
        for f in self.faults.iter().filter(|f| f.pu == pu) {
            match &f.kind {
                FaultKind::DriftRamp { from, attempts, to }
                    if attempt >= *from && *attempts > 0 =>
                {
                    let step = (attempt - from + 1).min(*attempts) as f64;
                    factor *= 1.0 + (to - 1.0) * step / *attempts as f64;
                }
                FaultKind::DriftStep { points } => {
                    if let Some(&(_, fac)) = points.iter().rev().find(|&&(at, _)| attempt >= at) {
                        factor *= fac;
                    }
                }
                FaultKind::DriftSinusoid {
                    from,
                    period,
                    amplitude,
                } if attempt >= *from && *period > 0 => {
                    let phase = (attempt - from) % period;
                    let angle = std::f64::consts::TAU * phase as f64 / *period as f64;
                    factor *= 1.0 + amplitude * angle.sin();
                }
                _ => {}
            }
        }
        factor
    }

    /// True when the plan carries any drift schedule — lets the driver
    /// skip per-attempt factor evaluation entirely on drift-free plans.
    pub fn has_drift(&self) -> bool {
        self.faults.iter().any(|f| {
            matches!(
                f.kind,
                FaultKind::DriftRamp { .. }
                    | FaultKind::DriftStep { .. }
                    | FaultKind::DriftSinusoid { .. }
            )
        })
    }

    /// The join schedule: one `(pu, after_tasks)` entry per joining
    /// unit, sorted by trigger count then unit id. Units listed here are
    /// latent at run start and are admitted by the driver once the
    /// global completed-task count reaches their trigger.
    pub fn joins(&self) -> Vec<(usize, u64)> {
        let mut joins: Vec<(usize, u64)> = self
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::Join { after_tasks } => Some((f.pu, after_tasks)),
                _ => None,
            })
            .collect();
        joins.sort_by_key(|&(pu, at)| (at, pu));
        joins
    }

    /// Parse the CLI syntax used by `plb run --faults`: a
    /// semicolon-separated list of faults, each `kind:key=value,...`,
    /// then [`validate`](Self::validate) the plan against a cluster of
    /// `n_pus` units. Faults may be listed in any order.
    ///
    /// ```text
    /// panic:pu=1,nth=3             panic on unit 1's 4th attempt
    /// flaky:pu=2,n=4               unit 2 panics its first 4 attempts
    /// delay:pu=0,from=2,n=5,s=0.1  +0.1s on unit 0 attempts 2..7
    /// rdelay:pu=0,from=0,n=9,max=0.2,seed=7
    /// join:pu=3,after=40           unit 3 is latent; joins after 40 tasks
    /// drift:pu=1,kind=ramp,from=0,n=40,to=3.0
    /// drift:pu=1,kind=step,points=5:1.5/12:2.0/20:1.0
    /// drift:pu=1,kind=sin,from=0,period=16,amp=0.5
    /// ```
    pub fn parse(spec: &str, n_pus: usize) -> Result<FaultPlan, FaultSpecError> {
        let (faults, parts) = build(spec, "expected kind:key=value,...", |part, kind, rest| {
            unit_fault(part, kind, rest).map(|f| vec![f])
        })?;
        let plan = FaultPlan { faults };
        plan.check(n_pus, &parts).map(|()| plan)
    }

    /// Check the plan against a cluster of `n_pus` units: the rules
    /// [`parse`](Self::parse) enforces beyond syntax, callable on a
    /// plan built in code or merged from two. Each violation names the
    /// fault by its `Debug` text:
    ///
    /// * `pu` must be `< n_pus`;
    /// * a unit may join at most once (a second `join` targets a unit
    ///   that is already live by then), and at least one unit must stay
    ///   live at run start (joins must not cover every unit);
    /// * attempt windows need `n ≥ 1` and `from + n` must not overflow;
    /// * injected durations (`s`, `max`) must be finite and positive;
    /// * drift factors (`to`, step factors) must lie within
    ///   [`DRIFT_FACTOR_RANGE`]; step breakpoints must be non-empty and
    ///   strictly increasing; a sinusoid needs `period ≥ 2` and `amp`
    ///   in (0, 1);
    /// * no fault may be listed twice.
    pub fn validate(&self, n_pus: usize) -> Result<(), FaultSpecError> {
        self.check(n_pus, &[])
    }

    /// [`validate`](Self::validate), naming fault `i` by `parts[i]`
    /// when the plan was parsed.
    fn check(&self, n_pus: usize, parts: &[&str]) -> Checked {
        let mut joined = BTreeSet::new();
        for (i, f) in self.faults.iter().enumerate() {
            let p: Name = &|| name(parts, i, f);
            in_range("pu", f.pu, n_pus, p)?;
            if matches!(f.kind, FaultKind::Join { .. }) && !joined.insert(f.pu) {
                return Err(FaultSpecError::Repeated {
                    part: p(),
                    target: "pu",
                    id: f.pu,
                });
            }
            check_values(&f.kind, p)?;
            if self.faults[..i].contains(f) {
                return Err(FaultSpecError::Duplicate { part: p() });
            }
        }
        if !joined.is_empty() && joined.len() >= n_pus {
            return Err(FaultSpecError::NoSurvivor { target: "pu" });
        }
        Ok(())
    }

    /// A seeded pseudo-random plan for chaos testing: roughly
    /// `intensity` faults drawn deterministically from `seed` over units
    /// `1..n_pus`. Unit 0 is always left healthy, so a run under any
    /// chaos plan can still make progress; injected delays stay in the
    /// low-millisecond range and the plan passes
    /// [`validate`](Self::validate). The same `(seed, n_pus, intensity)`
    /// always yields the same plan. A cluster with fewer than two units
    /// gets an empty plan (there is no unit to break without stalling
    /// the run).
    pub fn chaos(seed: u64, n_pus: usize, intensity: usize) -> FaultPlan {
        if n_pus < 2 {
            return FaultPlan::none();
        }
        let mut faults = Vec::new();
        let mut rng = ChaosStream::new(seed, 0x9e37_79b9_7f4a_7c15);
        // Each unit's faults start where its previous one did or later.
        let mut next_at: Vec<u64> = vec![0; n_pus];
        for _ in 0..intensity {
            let pu = rng.victim(n_pus);
            let at = next_at[pu];
            let kind = match rng.next() % 4 {
                // A flaky spell fires from attempt 0, so it is drawn
                // only as a unit's first fault.
                0 if at == 0 => FaultKind::FlakyUntil {
                    attempts: 1 + rng.next() % 3,
                },
                0 | 1 => FaultKind::PanicOnAttempt { nth: at },
                2 => FaultKind::Delay {
                    from: at,
                    attempts: 1 + rng.next() % 4,
                    seconds: 1e-4 * (1 + rng.next() % 20) as f64,
                },
                _ => FaultKind::RandomDelay {
                    from: at,
                    attempts: 1 + rng.next() % 4,
                    max_seconds: 2e-3,
                    seed: rng.next(),
                },
            };
            next_at[pu] = at + 1 + rng.next() % 5;
            let fault = Fault { pu, kind };
            if !faults.contains(&fault) {
                faults.push(fault);
            }
        }
        FaultPlan { faults }
    }

    /// [`chaos`](Self::chaos) plus an elastic dimension: roughly
    /// `elastic` additional hot-join and speed-drift faults drawn from
    /// the same seed. Unit 0 still stays untouched (so it is always live
    /// at start and never drifts), and the plan passes
    /// [`validate`](Self::validate). The same
    /// `(seed, n_pus, intensity, elastic)` always yields the same plan.
    pub fn chaos_elastic(seed: u64, n_pus: usize, intensity: usize, elastic: usize) -> FaultPlan {
        let mut plan = Self::chaos(seed, n_pus, intensity);
        if n_pus < 2 || elastic == 0 {
            return plan;
        }
        // A distinct stream from the base chaos plan's, so adding the
        // elastic dimension never reshuffles the failure faults.
        let mut rng = ChaosStream::new(seed, 0x5851_f42d_4c95_7f2d);
        let mut joined: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..elastic {
            let pu = rng.victim(n_pus);
            let kind = match rng.next() % 4 {
                // A unit joins at most once; a repeat pick drifts
                // instead so the draw is never wasted.
                0 if joined.insert(pu) => FaultKind::Join {
                    after_tasks: 1 + rng.next() % 40,
                },
                0 | 1 => FaultKind::DriftRamp {
                    from: rng.next() % 8,
                    attempts: 4 + rng.next() % 28,
                    to: 1.5 + (rng.next() % 25) as f64 * 0.1,
                },
                2 => {
                    let start = rng.next() % 8;
                    let first = (start, 1.2 + (rng.next() % 18) as f64 * 0.1);
                    let at = start + 4 + rng.next() % 12;
                    let points = vec![first, (at, 1.0 + (rng.next() % 10) as f64 * 0.1)];
                    FaultKind::DriftStep { points }
                }
                _ => FaultKind::DriftSinusoid {
                    from: rng.next() % 8,
                    period: 4 + rng.next() % 28,
                    amplitude: 0.1 + (rng.next() % 8) as f64 * 0.1,
                },
            };
            let fault = Fault { pu, kind };
            if !plan.faults.contains(&fault) {
                plan.faults.push(fault);
            }
        }
        plan
    }
}

/// Build one `--faults` fragment — syntax only: its kind, its keys and
/// their numbers. Every range rule is [`FaultPlan::validate`]'s.
fn unit_fault(part: &str, kind: &str, rest: &str) -> Result<Fault, FaultSpecError> {
    // Node-scoped kinds use the positional `--node-faults` grammar;
    // catching them before key=value parsing gives a pointer instead of
    // a confusing syntax error.
    if matches!(kind, "node-crash" | "partition" | "link-degrade") {
        let pointer = "is a node-scoped fault; pass it via --node-faults, not --faults";
        return Err(syntax(part, format!("`{kind}` {pointer}")));
    }
    let mut kv = BTreeMap::new();
    for pair in rest.split(',').filter(|p| !p.trim().is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| syntax(part, format!("bad key=value `{pair}`")))?;
        kv.insert(k.trim(), v.trim());
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| syntax(part, format!("missing `{k}`")))
    };
    let int =
        |k: &str| get(k).and_then(|v| read::<u64>(part, v, &format!("`{k}` must be an integer")));
    let num =
        |k: &str| get(k).and_then(|v| read::<f64>(part, v, &format!("`{k}` must be a number")));
    let pu = int("pu")? as usize;
    let kind = match kind {
        "panic" => FaultKind::PanicOnAttempt { nth: int("nth")? },
        "flaky" => FaultKind::FlakyUntil {
            attempts: int("n")?,
        },
        "delay" => FaultKind::Delay {
            from: int("from")?,
            attempts: int("n")?,
            seconds: num("s")?,
        },
        "rdelay" => FaultKind::RandomDelay {
            from: int("from")?,
            attempts: int("n")?,
            max_seconds: num("max")?,
            seed: int("seed").unwrap_or(0),
        },
        "join" => FaultKind::Join {
            after_tasks: int("after")?,
        },
        "drift" => match get("kind")? {
            "ramp" => FaultKind::DriftRamp {
                from: int("from")?,
                attempts: int("n")?,
                to: num("to")?,
            },
            "step" => {
                let mut points = Vec::new();
                for p in get("points")?.split('/').filter(|p| !p.trim().is_empty()) {
                    let (at, fac) = p.split_once(':').ok_or_else(|| {
                        syntax(
                            part,
                            format!("bad breakpoint `{p}` (expected attempt:factor)"),
                        )
                    })?;
                    let at = read(part, at, "a breakpoint attempt must be an integer")?;
                    points.push((at, read(part, fac, "a breakpoint factor must be a number")?));
                }
                FaultKind::DriftStep { points }
            }
            "sin" => FaultKind::DriftSinusoid {
                from: int("from")?,
                period: int("period")?,
                amplitude: num("amp")?,
            },
            other => Err(syntax(
                part,
                format!("unknown drift kind `{other}` (ramp, step, sin)"),
            ))?,
        },
        other => Err(syntax(
            part,
            format!("unknown fault kind `{other}` (panic, flaky, delay, rdelay, join, drift)"),
        ))?,
    };
    Ok(Fault { pu, kind })
}

/// The value rules of one unit fault, in the order
/// [`FaultPlan::validate`] checks them; `p` names the fault.
fn check_values(kind: &FaultKind, p: Name) -> Checked {
    if let Some((from, n)) = kind.window() {
        need(n >= 1, p, "n", "at least 1", n)?;
        let (fits, sum) = (from.checked_add(n).is_some(), format_args!("{from} + {n}"));
        need(fits, p, "from + n", "an end within u64 (it overflows)", sum)?;
    }
    let positive = |key, s: f64| {
        let ok = s.is_finite() && s > 0.0;
        need(ok, p, key, "a finite positive duration", s)
    };
    let (lo, hi) = DRIFT_FACTOR_RANGE;
    let drift = format!("a finite drift factor in [{lo}, {hi}]");
    let factor = |key, v: f64| need(v.is_finite() && (lo..=hi).contains(&v), p, key, &drift, v);
    match *kind {
        FaultKind::Delay { seconds, .. } => positive("s", seconds),
        FaultKind::RandomDelay { max_seconds, .. } => positive("max", max_seconds),
        FaultKind::DriftRamp { to, .. } => factor("to", to),
        FaultKind::DriftStep { ref points } => {
            let some = !points.is_empty();
            need(some, p, "points", "at least one breakpoint", "none")?;
            for &(_, fac) in points {
                factor("points", fac)?;
            }
            for pair in points.windows(2) {
                if let [(prev, _), (at, _)] = *pair {
                    let order = format_args!("{at} after {prev}");
                    need(at > prev, p, "points", "strictly increasing", order)?;
                }
            }
            Ok(())
        }
        FaultKind::DriftSinusoid {
            period, amplitude, ..
        } => {
            need(period >= 2, p, "period", "at least 2 attempts", period)?;
            let a = amplitude;
            let ok = a.is_finite() && a > 0.0 && a < 1.0;
            need(ok, p, "amp", "in (0, 1) so the factor stays positive", a)
        }
        _ => Ok(()),
    }
}

impl FaultKind {
    /// The attempt window `(from, n)` — attempts `from..from + n` — a
    /// fault spans, if it has one.
    fn window(&self) -> Option<(u64, u64)> {
        match *self {
            FaultKind::FlakyUntil { attempts } => Some((0, attempts)),
            FaultKind::Delay { from, attempts, .. }
            | FaultKind::RandomDelay { from, attempts, .. }
            | FaultKind::DriftRamp { from, attempts, .. } => Some((from, attempts)),
            _ => None,
        }
    }
}

/// One node-scoped fault bound to one cluster node.
///
/// Node faults live in a separate plan from [`Fault`] because they key
/// on different clocks: crashes trigger on the node's completed-chunk
/// count (deterministic across engines, like attempt-keyed PU faults),
/// while partitions and link degradations are windows in the *outer*
/// virtual clock of the cluster driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFault {
    /// Node index the fault applies to.
    pub node: usize,
    /// What goes wrong.
    pub kind: NodeFaultKind,
}

impl NodeFault {
    /// The `(from_s, to_s)` window of a partition.
    fn partition(&self) -> Option<(f64, f64)> {
        match self.kind {
            NodeFaultKind::Partition { from_s, to_s } => Some((from_s, to_s)),
            _ => None,
        }
    }
}

/// Kinds of node-scoped fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum NodeFaultKind {
    /// The node dies permanently once it has completed `after_chunks`
    /// migration chunks. Chunk-count keying (not wall time) keeps
    /// crash points deterministic on both engines.
    Crash {
        /// Completed-chunk count at which the node goes dark.
        after_chunks: u64,
    },
    /// The node is unreachable from the coordinator during
    /// `[from_s, to_s)` of the outer virtual clock, then heals.
    Partition {
        /// Window start, seconds on the cluster driver's clock.
        from_s: f64,
        /// Window end (exclusive), seconds; the heal instant.
        to_s: f64,
    },
    /// Transfers between this node and `peer` take `factor`× as long
    /// during `[from_s, to_s)`. Matches in either direction;
    /// overlapping degradations on the same link compose by
    /// multiplication.
    LinkDegrade {
        /// The other endpoint of the degraded link.
        peer: usize,
        /// Transfer-time multiplier, finite and ≥ 1.
        factor: f64,
        /// Window start, seconds on the cluster driver's clock.
        from_s: f64,
        /// Window end (exclusive), seconds.
        to_s: f64,
    },
}

/// Why a fault spec or plan is rejected, in either scope: returned by
/// [`FaultPlan::parse`] / [`FaultPlan::validate`] and
/// [`NodeFaultPlan::parse`] / [`NodeFaultPlan::validate`]. Every
/// malformed spec is a value of this enum, never a panic. `part` names
/// the offending spec fragment, or the fault's `Debug` text when the
/// plan was not parsed; `target` is `"pu"` for a unit plan and
/// `"node"` for a node plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpecError {
    /// The fragment is not syntactically a fault of its scope.
    Syntax {
        /// The offending fragment.
        part: String,
        /// What was expected instead.
        detail: String,
    },
    /// A unit or node id at or beyond the cluster size.
    UnknownTarget {
        /// The offending fault.
        part: String,
        /// `"pu"` or `"node"`.
        target: &'static str,
        /// The out-of-range id.
        id: usize,
        /// Cluster size the plan was checked against.
        count: usize,
    },
    /// A once-only event happens twice to one target: a unit's second
    /// `join`, a node's second crash.
    Repeated {
        /// The second occurrence.
        part: String,
        /// `"pu"` or `"node"`.
        target: &'static str,
        /// The target it happens to.
        id: usize,
    },
    /// Nothing survives the plan: every unit joins mid-run (none is
    /// live at start), or every node crashes.
    NoSurvivor {
        /// `"pu"` or `"node"`.
        target: &'static str,
    },
    /// A value outside its accepted range.
    BadValue {
        /// The offending fault.
        part: String,
        /// The spec key the value belongs to.
        key: &'static str,
        /// What the key accepts.
        accepted: String,
        /// The rejected value.
        value: String,
    },
    /// A unit fault listed twice.
    Duplicate {
        /// The second listing.
        part: String,
    },
    /// The spec contained no faults at all.
    Empty,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A unit plan's targets are units that may join once; a node
        // plan's, nodes that may crash once.
        let scope = |target: &str| match target {
            "pu" => ("unit", "join", "joins"),
            _ => ("node", "crash", "crashes"),
        };
        match self {
            FaultSpecError::Syntax { part, detail } => write!(f, "fault `{part}`: {detail}"),
            FaultSpecError::UnknownTarget {
                part,
                target,
                id,
                count,
            } => {
                let (noun, ..) = scope(target);
                write!(
                    f,
                    "fault `{part}`: {target} {id} out of range for a {count}-{noun} cluster"
                )
            }
            FaultSpecError::Repeated { part, target, id } => {
                let (_, event, events) = scope(target);
                let again =
                    format!("already {events} earlier in the plan and cannot {event} again");
                write!(f, "fault `{part}`: {target} {id} {again}")
            }
            FaultSpecError::NoSurvivor { target } => {
                let (noun, _, events) = scope(target);
                write!(
                    f,
                    "every {noun} {events}; at least one {noun} must be live throughout"
                )
            }
            FaultSpecError::BadValue {
                part,
                key,
                accepted,
                value,
            } => {
                write!(f, "fault `{part}`: `{key}` must be {accepted}, got {value}")
            }
            FaultSpecError::Duplicate { part } => {
                write!(f, "fault `{part}`: duplicate of an earlier fault")
            }
            FaultSpecError::Empty => write!(f, "empty fault spec"),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Split `spec` at `;` into trimmed fragments, cut each at its first
/// `:` into a kind and the rest, and build each with `one`. Returns the
/// faults and, for each, the fragment it came from. A fragment with no
/// `:` is a syntax error saying `expected`; a spec with no fragment is
/// [`FaultSpecError::Empty`].
fn build<'a, F>(
    spec: &'a str,
    expected: &str,
    mut one: impl FnMut(&'a str, &'a str, &'a str) -> Result<Vec<F>, FaultSpecError>,
) -> Result<(Vec<F>, Vec<&'a str>), FaultSpecError> {
    let (mut faults, mut parts) = (Vec::new(), Vec::new());
    for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
        let (kind, rest) = part.split_once(':').ok_or_else(|| syntax(part, expected))?;
        for fault in one(part, kind.trim(), rest)? {
            faults.push(fault);
            parts.push(part);
        }
    }
    if faults.is_empty() {
        return Err(FaultSpecError::Empty);
    }
    Ok((faults, parts))
}

/// A [`FaultSpecError::Syntax`] of fragment `part`.
fn syntax(part: &str, detail: impl Into<String>) -> FaultSpecError {
    FaultSpecError::Syntax {
        part: part.to_string(),
        detail: detail.into(),
    }
}

/// `text` read as a `T`, or a syntax error of `part` saying what it
/// `must` be.
fn read<T: std::str::FromStr>(part: &str, text: &str, must: &str) -> Result<T, FaultSpecError> {
    text.trim()
        .parse()
        .map_err(|_| syntax(part, format!("{must}, got `{text}`")))
}

/// How an error names fault `i`: its spec fragment when the plan was
/// parsed, its `Debug` text otherwise.
fn name(parts: &[&str], i: usize, fault: &impl std::fmt::Debug) -> String {
    match parts.get(i) {
        Some(part) => part.to_string(),
        None => format!("{fault:?}"),
    }
}

/// Names the fault a rule is checked on; called only once one breaks.
type Name<'a> = &'a dyn Fn() -> String;

/// The one range rule of both scopes: `id` names one of `count`
/// targets.
fn in_range(target: &'static str, id: usize, count: usize, p: Name) -> Checked {
    if id < count {
        return Ok(());
    }
    Err(FaultSpecError::UnknownTarget {
        part: p(),
        target,
        id,
        count,
    })
}

/// `Ok` when the rule `holds`; otherwise fault `p`'s `key` took
/// `value` where it accepts only `accepted`.
fn need(holds: bool, p: Name, key: &'static str, accepted: &str, value: impl Display) -> Checked {
    if holds {
        return Ok(());
    }
    let (accepted, value) = (accepted.to_string(), value.to_string());
    Err(FaultSpecError::BadValue {
        part: p(),
        key,
        accepted,
        value,
    })
}

/// A deterministic plan of node-scoped faults for the cluster tier.
/// Empty plans are free, mirroring [`FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeFaultPlan {
    /// The injected node faults, in no particular order.
    pub faults: Vec<NodeFault>,
}

impl NodeFaultPlan {
    /// A plan with no node faults.
    pub fn none() -> NodeFaultPlan {
        NodeFaultPlan::default()
    }

    /// Build a plan from a fault list (call [`validate`](Self::validate)
    /// before trusting a hand-built one).
    pub fn new(faults: Vec<NodeFault>) -> NodeFaultPlan {
        NodeFaultPlan { faults }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The completed-chunk count at which `node` crashes, if it does.
    pub fn crash_after(&self, node: usize) -> Option<u64> {
        self.faults.iter().find_map(|f| match f.kind {
            NodeFaultKind::Crash { after_chunks } if f.node == node => Some(after_chunks),
            _ => None,
        })
    }

    /// True when `node` is inside a partition window at time `t`.
    pub fn partitioned(&self, node: usize, t: f64) -> bool {
        let mine = self.faults.iter().filter(|f| f.node == node);
        mine.filter_map(NodeFault::partition)
            .any(|(from_s, to_s)| t >= from_s && t < to_s)
    }

    /// `node`'s partition windows as `(from_s, to_s)` pairs, ascending
    /// by start time.
    pub fn partition_windows(&self, node: usize) -> Vec<(f64, f64)> {
        let mine = self.faults.iter().filter(|f| f.node == node);
        let mut windows: Vec<(f64, f64)> = mine.filter_map(NodeFault::partition).collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        windows
    }

    /// The transfer-time multiplier on the `a`–`b` link at time `t`
    /// (1.0 = nominal). Direction-agnostic; overlapping degradations
    /// compose by multiplication.
    pub fn degrade_factor(&self, a: usize, b: usize, t: f64) -> f64 {
        let mut factor = 1.0f64;
        for f in &self.faults {
            if let NodeFaultKind::LinkDegrade {
                peer,
                factor: fac,
                from_s,
                to_s,
            } = f.kind
            {
                let hits = (f.node == a && peer == b) || (f.node == b && peer == a);
                if hits && t >= from_s && t < to_s {
                    factor *= fac;
                }
            }
        }
        factor
    }

    /// Check the plan against a cluster of `n_nodes`: the rules
    /// [`parse`](Self::parse) enforces beyond syntax, callable on a
    /// plan built in code. Each violation names the fault by its
    /// `Debug` text:
    ///
    /// * every node id, a link's peer included, must be `< n_nodes`;
    /// * a node crashes at most once, and not every node may crash;
    /// * a link joins two different nodes, and its factor is finite
    ///   and ≥ 1;
    /// * every window satisfies `0 ≤ from < to`, both finite;
    /// * one node's partition windows must not overlap.
    pub fn validate(&self, n_nodes: usize) -> Result<(), FaultSpecError> {
        self.check(n_nodes, &[])
    }

    /// [`validate`](Self::validate), naming fault `i` by `parts[i]`
    /// when the plan was parsed.
    fn check(&self, n_nodes: usize, parts: &[&str]) -> Checked {
        let mut crashed = BTreeSet::new();
        for (i, f) in self.faults.iter().enumerate() {
            let p: Name = &|| name(parts, i, f);
            in_range("node", f.node, n_nodes, p)?;
            let (from_s, to_s) = match f.kind {
                NodeFaultKind::Crash { .. } if !crashed.insert(f.node) => {
                    return Err(FaultSpecError::Repeated {
                        part: p(),
                        target: "node",
                        id: f.node,
                    });
                }
                NodeFaultKind::Crash { .. } => continue,
                NodeFaultKind::Partition { from_s, to_s } => (from_s, to_s),
                NodeFaultKind::LinkDegrade {
                    peer,
                    factor,
                    from_s,
                    to_s,
                } => {
                    in_range("node", peer, n_nodes, p)?;
                    need(peer != f.node, p, "peer", "another node than its own", peer)?;
                    let ok = factor.is_finite() && factor >= 1.0;
                    need(ok, p, "factor", "finite and >= 1", factor)?;
                    (from_s, to_s)
                }
            };
            let ok = from_s.is_finite() && to_s.is_finite() && from_s >= 0.0 && from_s < to_s;
            let window = format_args!("[{from_s}, {to_s})");
            need(ok, p, "window", "0 <= from < to, both finite", window)?;
            let earlier = self.faults[..i].iter().filter(|g| g.node == f.node);
            let mut windows = earlier.filter_map(NodeFault::partition);
            let clash = f
                .partition()
                .and_then(|_| windows.find(|w| w.0 < to_s && from_s < w.1));
            if let Some((a, b)) = clash {
                let clear = format!("clear of node {}'s partition [{a}, {b})", f.node);
                need(false, p, "window", &clear, window)?;
            }
        }
        if !crashed.is_empty() && crashed.len() >= n_nodes {
            return Err(FaultSpecError::NoSurvivor { target: "node" });
        }
        Ok(())
    }

    /// Parse the CLI syntax used by `plb run --node-faults`: a
    /// semicolon-separated list of positional node faults, then
    /// [`validate`](Self::validate) the plan against a cluster of
    /// `n_nodes` nodes.
    ///
    /// ```text
    /// node-crash:2,6            node 2 dies after completing 6 chunks
    /// partition:1|3,2.0,9.0     nodes 1 and 3 lose the coordinator on [2, 9)
    /// link-degrade:0-1,8,0,14   0-1 transfers take 8x as long on [0, 14)
    /// ```
    ///
    /// The `partition` sides are `+`-separated node lists; every node
    /// on the side *not* containing node 0 (the coordinator) is
    /// unreachable for the window.
    pub fn parse(spec: &str, n_nodes: usize) -> Result<NodeFaultPlan, FaultSpecError> {
        let (faults, parts) = build(spec, "expected kind:arg,arg,...", |part, kind, rest| {
            node_faults(part, kind, rest, n_nodes)
        })?;
        let plan = NodeFaultPlan { faults };
        plan.check(n_nodes, &parts).map(|()| plan)
    }

    /// A seeded pseudo-random node-fault plan for cluster chaos
    /// testing: roughly `intensity` faults over nodes `1..n_nodes`
    /// (node 0 always stays healthy and unpartitioned so the run can
    /// finish), with per-node partition windows kept disjoint and at
    /// most one crash per node. The same `(seed, n_nodes, intensity)`
    /// always yields the same plan, and the plan always passes
    /// [`validate`](Self::validate).
    pub fn chaos_cluster(seed: u64, n_nodes: usize, intensity: usize) -> NodeFaultPlan {
        if n_nodes < 2 {
            return NodeFaultPlan::none();
        }
        let mut faults = Vec::new();
        let mut rng = ChaosStream::new(seed, 0x1b87_3593_12f4_11ae);
        let mut crashed: BTreeSet<usize> = BTreeSet::new();
        // Next free partition-window start per node, keeping windows
        // disjoint by construction.
        let mut part_from: Vec<f64> = vec![0.0; n_nodes];
        for _ in 0..intensity {
            let node = rng.victim(n_nodes);
            let kind = match rng.next() % 4 {
                0 if crashed.insert(node) => NodeFaultKind::Crash {
                    after_chunks: 1 + rng.next() % 6,
                },
                0 | 1 => {
                    let peer = (node + 1 + rng.next() as usize % (n_nodes - 1)) % n_nodes;
                    let from_s = (rng.next() % 8) as f64;
                    NodeFaultKind::LinkDegrade {
                        peer: if peer == node { 0 } else { peer },
                        factor: 2.0 + (rng.next() % 12) as f64,
                        from_s,
                        to_s: from_s + 1.0 + (rng.next() % 10) as f64,
                    }
                }
                _ => {
                    let from_s = part_from[node] + (rng.next() % 4) as f64;
                    let to_s = from_s + 0.5 + (rng.next() % 6) as f64;
                    part_from[node] = to_s;
                    NodeFaultKind::Partition { from_s, to_s }
                }
            };
            faults.push(NodeFault { node, kind });
        }
        NodeFaultPlan { faults }
    }
}

/// Build one `--node-faults` fragment — syntax only: its positional
/// arguments and the partition's sides. The side a partition leaves in
/// contact never enters the plan, so it is range-checked here; every
/// other rule is [`NodeFaultPlan::validate`]'s.
fn node_faults(
    part: &str,
    kind: &str,
    rest: &str,
    n: usize,
) -> Result<Vec<NodeFault>, FaultSpecError> {
    let args: Vec<&str> = rest.split(',').map(str::trim).collect();
    let node_id = |s: &str| read::<usize>(part, s, "a node id must be an integer");
    let seconds = |s: &str| read::<f64>(part, s, "a time must be a number of seconds");
    let (nodes, kind) = match (kind, &args[..]) {
        ("node-crash", &[node, after]) => {
            let after_chunks = read(part, after, "`after_chunks` must be an integer")?;
            (vec![node_id(node)?], NodeFaultKind::Crash { after_chunks })
        }
        ("partition", &[sides, from, to]) => {
            let (a, b) = sides
                .split_once('|')
                .ok_or_else(|| syntax(part, "sides need a `|`"))?;
            let side = |side: &str| -> Result<Vec<usize>, FaultSpecError> {
                let nodes = side.split('+').filter(|s| !s.trim().is_empty());
                let nodes = nodes.map(node_id).collect::<Result<Vec<_>, _>>()?;
                match nodes.is_empty() {
                    true => Err(syntax(part, "each partition side needs at least one node")),
                    false => Ok(nodes),
                }
            };
            let (a, b) = (side(a)?, side(b)?);
            if let Some(&dup) = a.iter().find(|n| b.contains(n)) {
                let both = format!("node {dup} appears on both partition sides");
                return Err(syntax(part, both));
            }
            // The side without the coordinator (node 0) loses contact;
            // if neither side lists node 0 the cut isolates side b from
            // the a-side work source.
            let (kept, cut) = if a.contains(&0) || !b.contains(&0) {
                (a, b)
            } else {
                (b, a)
            };
            for node in kept {
                in_range("node", node, n, &|| part.to_string())?;
            }
            let (from_s, to_s) = (seconds(from)?, seconds(to)?);
            (cut, NodeFaultKind::Partition { from_s, to_s })
        }
        ("link-degrade", &[link, factor, from, to]) => {
            let (a, b) = link
                .split_once('-')
                .ok_or_else(|| syntax(part, "link needs a `-`"))?;
            let kind = NodeFaultKind::LinkDegrade {
                peer: node_id(b)?,
                factor: read(part, factor, "`factor` must be a number")?,
                from_s: seconds(from)?,
                to_s: seconds(to)?,
            };
            (vec![node_id(a)?], kind)
        }
        ("node-crash", _) => Err(syntax(part, "expected node-crash:node,after_chunks"))?,
        ("partition", _) => Err(syntax(part, "expected partition:a+..|b+..,from_s,to_s"))?,
        ("link-degrade", _) => Err(syntax(part, "expected link-degrade:a-b,factor,from_s,to_s"))?,
        (other, _) => {
            let kinds = "(node-crash, partition, link-degrade)";
            Err(syntax(
                part,
                format!("unknown node fault kind `{other}` {kinds}"),
            ))?
        }
    };
    let fault = |node| NodeFault {
        node,
        kind: kind.clone(),
    };
    Ok(nodes.into_iter().map(fault).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `FaultPlan::parse` rejects `spec` with.
    fn reject(spec: &str, n: usize) -> String {
        FaultPlan::parse(spec, n).unwrap_err().to_string()
    }

    /// Two errors break the same rule: the same variant and, for a bad
    /// value, the same key.
    pub(super) fn same_rule(a: &FaultSpecError, b: &FaultSpecError) -> bool {
        let key = |e: &FaultSpecError| match e {
            FaultSpecError::BadValue { key, .. } => Some(*key),
            _ => None,
        };
        std::mem::discriminant(a) == std::mem::discriminant(b) && key(a) == key(b)
    }

    #[test]
    fn panic_fires_on_exact_attempt() {
        let plan = FaultPlan::new(vec![Fault {
            pu: 1,
            kind: FaultKind::PanicOnAttempt { nth: 2 },
        }]);
        assert_eq!(plan.action(1, 1), None);
        assert_eq!(plan.action(1, 2), Some(FaultAction::Panic));
        assert_eq!(plan.action(1, 3), None);
        assert_eq!(plan.action(0, 2), None);
    }

    #[test]
    fn flaky_recovers_after_threshold() {
        let plan = FaultPlan::new(vec![Fault {
            pu: 0,
            kind: FaultKind::FlakyUntil { attempts: 3 },
        }]);
        for a in 0..3 {
            assert_eq!(plan.action(0, a), Some(FaultAction::Panic));
        }
        assert_eq!(plan.action(0, 3), None);
    }

    #[test]
    fn delays_sum_and_panic_wins() {
        let plan = FaultPlan::new(vec![
            Fault {
                pu: 0,
                kind: FaultKind::Delay {
                    from: 0,
                    attempts: 10,
                    seconds: 0.5,
                },
            },
            Fault {
                pu: 0,
                kind: FaultKind::Delay {
                    from: 5,
                    attempts: 10,
                    seconds: 0.25,
                },
            },
            Fault {
                pu: 0,
                kind: FaultKind::PanicOnAttempt { nth: 6 },
            },
        ]);
        assert_eq!(plan.action(0, 1), Some(FaultAction::Delay(0.5)));
        assert_eq!(plan.action(0, 5), Some(FaultAction::Delay(0.75)));
        assert_eq!(plan.action(0, 6), Some(FaultAction::Panic));
        assert_eq!(plan.action(0, 20), None);
    }

    #[test]
    fn random_delay_is_deterministic_and_bounded() {
        let plan = FaultPlan::new(vec![Fault {
            pu: 2,
            kind: FaultKind::RandomDelay {
                from: 0,
                attempts: 100,
                max_seconds: 0.2,
                seed: 42,
            },
        }]);
        let mut distinct = std::collections::BTreeSet::new();
        for a in 0..100 {
            match plan.action(2, a) {
                Some(FaultAction::Delay(d)) => {
                    assert!((0.0..0.2).contains(&d), "delay {d} out of range");
                    assert_eq!(plan.action(2, a), Some(FaultAction::Delay(d)));
                    distinct.insert((d * 1e12) as u64);
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
        assert!(distinct.len() > 90, "delays should vary across attempts");
    }

    #[test]
    fn parse_round_trips_the_cli_syntax() {
        let plan = FaultPlan::parse(
            "panic:pu=1,nth=3; flaky:pu=2,n=4;delay:pu=0,from=2,n=5,s=0.1",
            4,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(
            plan.faults[0],
            Fault {
                pu: 1,
                kind: FaultKind::PanicOnAttempt { nth: 3 },
            }
        );
        assert_eq!(
            plan.faults[2],
            Fault {
                pu: 0,
                kind: FaultKind::Delay {
                    from: 2,
                    attempts: 5,
                    seconds: 0.1,
                },
            }
        );
        assert!(FaultPlan::parse("", 4).is_err());
        assert!(FaultPlan::parse("explode:pu=0", 4).is_err());
        assert!(FaultPlan::parse("panic:pu=0", 4).is_err(), "missing nth");
        assert!(FaultPlan::parse("panic:nth=0", 4).is_err(), "missing pu");
    }

    #[test]
    fn parse_rejects_out_of_range_pu() {
        let err = reject("panic:pu=4,nth=0", 4);
        assert!(err.contains("pu 4 out of range"), "{err}");
        assert!(err.contains("4-unit cluster"), "{err}");
        assert!(FaultPlan::parse("panic:pu=3,nth=0", 4).is_ok(), "boundary");
    }

    #[test]
    fn parse_rejects_duplicate_faults() {
        let err = reject("panic:pu=1,nth=3;panic:pu=1,nth=3", 4);
        assert!(err.contains("duplicate"), "{err}");
        // Same kind, different parameters: not a duplicate.
        assert!(FaultPlan::parse("panic:pu=1,nth=3;panic:pu=1,nth=5", 4).is_ok());
        // Same parameters, different unit: not a duplicate.
        assert!(FaultPlan::parse("panic:pu=1,nth=3;panic:pu=2,nth=3", 4).is_ok());
    }

    #[test]
    fn listing_order_changes_nothing() {
        // What a plan does to a unit depends on which faults it holds,
        // not on the order they are listed in: reversing the listing
        // moves no action, drift factor or join. Listings out of
        // attempt order parse; chaos_elastic draws them all the time.
        let mut plans: Vec<(FaultPlan, usize)> = [
            "panic:pu=1,nth=5;panic:pu=1,nth=2",
            "panic:pu=1,nth=5;flaky:pu=1,n=2",
            "drift:pu=1,kind=ramp,from=9,n=4,to=2;panic:pu=1,nth=2",
            "delay:pu=1,from=5,n=9,s=0.1;rdelay:pu=1,from=2,n=9,max=0.2;\
             delay:pu=1,from=0,n=9,s=0.3;join:pu=2,after=4;join:pu=1,after=9",
            // The `plb` usage text's own example.
            "panic:pu=1,nth=3; flaky:pu=2,n=4; delay:pu=0,from=2,n=5,s=0.1; \
             join:pu=3,after=40; drift:pu=1,kind=sin,from=0,period=16,amp=0.5",
        ]
        .iter()
        .map(|spec| (FaultPlan::parse(spec, 4).unwrap(), 4))
        .collect();
        plans.extend((0..32).map(|seed| (FaultPlan::chaos_elastic(seed, 5, 6, 5), 5)));
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        for (plan, n) in plans {
            let mut reversed = plan.clone();
            reversed.faults.reverse();
            assert_eq!(reversed.validate(n), plan.validate(n));
            assert_eq!(reversed.joins(), plan.joins());
            for pu in 0..n {
                for attempt in 0..64 {
                    match (plan.action(pu, attempt), reversed.action(pu, attempt)) {
                        (Some(FaultAction::Delay(a)), Some(FaultAction::Delay(b))) => {
                            assert!(close(a, b), "{plan:?} pu {pu} attempt {attempt}")
                        }
                        (a, b) => assert_eq!(a, b, "{plan:?} pu {pu} attempt {attempt}"),
                    }
                    let (a, b) = (
                        plan.drift_factor(pu, attempt),
                        reversed.drift_factor(pu, attempt),
                    );
                    assert!(close(a, b), "{plan:?} pu {pu} attempt {attempt}");
                }
            }
        }
    }

    #[test]
    fn parse_and_validate_agree_on_every_unit_rule() {
        // One malformed fault per rule of `FaultPlan::validate`, as a
        // spec and built by hand.
        let f = |pu, kind| Fault { pu, kind };
        let panic = |nth| FaultKind::PanicOnAttempt { nth };
        let join = |after_tasks| FaultKind::Join { after_tasks };
        let delay = |from, attempts, seconds| FaultKind::Delay {
            from,
            attempts,
            seconds,
        };
        let ramp = |attempts, to| FaultKind::DriftRamp {
            from: 0,
            attempts,
            to,
        };
        let step = |points: &[(u64, f64)]| FaultKind::DriftStep {
            points: points.to_vec(),
        };
        let sin = |period, amplitude| FaultKind::DriftSinusoid {
            from: 0,
            period,
            amplitude,
        };
        let table = [
            ("panic:pu=4,nth=0", 4, vec![f(4, panic(0))]),
            (
                "join:pu=2,after=10;join:pu=2,after=20",
                4,
                vec![f(2, join(10)), f(2, join(20))],
            ),
            (
                "join:pu=0,after=1;join:pu=1,after=2",
                2,
                vec![f(0, join(1)), f(1, join(2))],
            ),
            (
                "flaky:pu=1,n=0",
                4,
                vec![f(1, FaultKind::FlakyUntil { attempts: 0 })],
            ),
            (
                "delay:pu=1,from=18446744073709551615,n=1,s=0.1",
                4,
                vec![f(1, delay(u64::MAX, 1, 0.1))],
            ),
            ("delay:pu=1,from=0,n=1,s=0", 4, vec![f(1, delay(0, 1, 0.0))]),
            (
                "rdelay:pu=1,from=0,n=1,max=inf",
                4,
                vec![f(
                    1,
                    FaultKind::RandomDelay {
                        from: 0,
                        attempts: 1,
                        max_seconds: f64::INFINITY,
                        seed: 0,
                    },
                )],
            ),
            (
                "drift:pu=1,kind=ramp,from=0,n=4,to=0",
                4,
                vec![f(1, ramp(4, 0.0))],
            ),
            (
                "drift:pu=1,kind=step,points=3:200.0",
                4,
                vec![f(1, step(&[(3, 200.0)]))],
            ),
            (
                "drift:pu=1,kind=step,points=9:1.5/3:2.0",
                4,
                vec![f(1, step(&[(9, 1.5), (3, 2.0)]))],
            ),
            ("drift:pu=1,kind=step,points=", 4, vec![f(1, step(&[]))]),
            (
                "drift:pu=1,kind=sin,from=0,period=1,amp=0.5",
                4,
                vec![f(1, sin(1, 0.5))],
            ),
            (
                "drift:pu=1,kind=sin,from=0,period=8,amp=1.5",
                4,
                vec![f(1, sin(8, 1.5))],
            ),
            (
                "panic:pu=1,nth=3;panic:pu=1,nth=3",
                4,
                vec![f(1, panic(3)), f(1, panic(3))],
            ),
        ];
        for (spec, n, faults) in table {
            let parsed = FaultPlan::parse(spec, n).unwrap_err();
            let built = FaultPlan::new(faults).validate(n).unwrap_err();
            assert!(same_rule(&parsed, &built), "{spec}: {parsed} vs {built}");
        }
        // A parsed plan's error quotes the spec fragment, a built one's
        // the fault.
        let built = FaultPlan::new(vec![f(4, panic(0))])
            .validate(4)
            .unwrap_err();
        assert!(reject("panic:pu=4,nth=0", 4).starts_with("fault `panic:pu=4,nth=0`"));
        assert!(
            built.to_string().starts_with("fault `Fault { pu: 4"),
            "{built}"
        );
    }

    #[test]
    fn parse_rejects_degenerate_windows_and_durations() {
        let err = reject("flaky:pu=1,n=0", 4);
        assert!(err.contains("`n` must be at least 1"), "{err}");
        let err = reject("delay:pu=1,from=2,n=0,s=0.1", 4);
        assert!(err.contains("`n` must be at least 1"), "{err}");
        let err = reject("delay:pu=1,from=18446744073709551615,n=1,s=0.1", 4);
        assert!(err.contains("overflows"), "{err}");
        let err = reject("delay:pu=1,from=0,n=1,s=0", 4);
        assert!(err.contains("finite positive duration"), "{err}");
        let err = reject("delay:pu=1,from=0,n=1,s=-1", 4);
        assert!(err.contains("finite positive duration"), "{err}");
        let err = reject("rdelay:pu=1,from=0,n=1,max=inf", 4);
        assert!(err.contains("finite positive duration"), "{err}");
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::parse("rdelay:pu=0,from=0,n=2,max=0.5,seed=9", 4).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn chaos_is_deterministic_and_well_formed() {
        let a = FaultPlan::chaos(42, 4, 12);
        let b = FaultPlan::chaos(42, 4, 12);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::chaos(43, 4, 12), "seed changes the plan");
        assert!(!a.is_empty());

        for seed in 0..32u64 {
            let plan = FaultPlan::chaos(seed, 5, 10);
            plan.validate(5).unwrap();
            for f in &plan.faults {
                assert!(f.pu >= 1, "unit 0 stays healthy: {f:?}");
                assert!(
                    matches!(
                        f.kind,
                        FaultKind::PanicOnAttempt { .. }
                            | FaultKind::FlakyUntil { .. }
                            | FaultKind::Delay { .. }
                            | FaultKind::RandomDelay { .. }
                    ),
                    "chaos() draws failures only: {f:?}"
                );
            }
        }
        assert!(
            FaultPlan::chaos(7, 1, 10).is_empty(),
            "nothing safe to break"
        );
        assert!(FaultPlan::chaos(7, 4, 0).is_empty());
    }

    #[test]
    fn drift_ramp_interpolates_and_holds() {
        let plan = FaultPlan::new(vec![Fault {
            pu: 1,
            kind: FaultKind::DriftRamp {
                from: 2,
                attempts: 4,
                to: 3.0,
            },
        }]);
        assert_eq!(plan.drift_factor(1, 0), 1.0, "before the window");
        assert_eq!(plan.drift_factor(1, 1), 1.0);
        assert!((plan.drift_factor(1, 2) - 1.5).abs() < 1e-12, "first step");
        assert!((plan.drift_factor(1, 3) - 2.0).abs() < 1e-12);
        assert!(
            (plan.drift_factor(1, 5) - 3.0).abs() < 1e-12,
            "ramp tops out"
        );
        assert!(
            (plan.drift_factor(1, 100) - 3.0).abs() < 1e-12,
            "holds after"
        );
        assert_eq!(plan.drift_factor(0, 5), 1.0, "other units unaffected");
        assert_eq!(plan.action(1, 3), None, "drift is not an attempt action");
    }

    #[test]
    fn drift_step_and_sinusoid_evaluate() {
        let plan = FaultPlan::new(vec![
            Fault {
                pu: 0,
                kind: FaultKind::DriftStep {
                    points: vec![(3, 2.0), (7, 0.5)],
                },
            },
            Fault {
                pu: 2,
                kind: FaultKind::DriftSinusoid {
                    from: 0,
                    period: 4,
                    amplitude: 0.5,
                },
            },
        ]);
        assert_eq!(plan.drift_factor(0, 0), 1.0);
        assert_eq!(plan.drift_factor(0, 3), 2.0);
        assert_eq!(plan.drift_factor(0, 6), 2.0, "holds between breakpoints");
        assert_eq!(plan.drift_factor(0, 7), 0.5, "a drift can also speed up");
        // Sinusoid: attempts 0..4 hit sin(0), sin(π/2), sin(π), sin(3π/2).
        assert!((plan.drift_factor(2, 0) - 1.0).abs() < 1e-12);
        assert!((plan.drift_factor(2, 1) - 1.5).abs() < 1e-12);
        assert!((plan.drift_factor(2, 2) - 1.0).abs() < 1e-9);
        assert!((plan.drift_factor(2, 3) - 0.5).abs() < 1e-12);
        assert!((plan.drift_factor(2, 4) - 1.0).abs() < 1e-12, "periodic");
        for a in 0..64 {
            assert!(plan.drift_factor(2, a) > 0.0, "factor must stay positive");
        }
        assert!(plan.has_drift());
        assert!(!FaultPlan::none().has_drift());
    }

    #[test]
    fn matching_drifts_compose_by_multiplication() {
        let plan = FaultPlan::new(vec![
            Fault {
                pu: 0,
                kind: FaultKind::DriftStep {
                    points: vec![(0, 2.0)],
                },
            },
            Fault {
                pu: 0,
                kind: FaultKind::DriftStep {
                    points: vec![(5, 3.0)],
                },
            },
        ]);
        assert_eq!(plan.drift_factor(0, 0), 2.0);
        assert_eq!(plan.drift_factor(0, 5), 6.0);
    }

    #[test]
    fn joins_collects_the_schedule_in_trigger_order() {
        let plan = FaultPlan::new(vec![
            Fault {
                pu: 3,
                kind: FaultKind::Join { after_tasks: 50 },
            },
            Fault {
                pu: 1,
                kind: FaultKind::PanicOnAttempt { nth: 0 },
            },
            Fault {
                pu: 2,
                kind: FaultKind::Join { after_tasks: 10 },
            },
        ]);
        assert_eq!(plan.joins(), vec![(2, 10), (3, 50)]);
        assert!(FaultPlan::none().joins().is_empty());
        assert_eq!(plan.action(3, 0), None, "a join is not an attempt action");
    }

    #[test]
    fn parse_round_trips_join_and_drift() {
        let plan = FaultPlan::parse(
            "join:pu=3,after=40; drift:pu=1,kind=ramp,from=0,n=40,to=3.0; \
             drift:pu=2,kind=step,points=5:1.5/12:2.0; \
             drift:pu=2,kind=sin,from=12,period=16,amp=0.5",
            4,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(
            plan.faults[0],
            Fault {
                pu: 3,
                kind: FaultKind::Join { after_tasks: 40 },
            }
        );
        assert_eq!(
            plan.faults[1],
            Fault {
                pu: 1,
                kind: FaultKind::DriftRamp {
                    from: 0,
                    attempts: 40,
                    to: 3.0,
                },
            }
        );
        assert_eq!(
            plan.faults[2],
            Fault {
                pu: 2,
                kind: FaultKind::DriftStep {
                    points: vec![(5, 1.5), (12, 2.0)],
                },
            }
        );
        assert_eq!(plan.joins(), vec![(3, 40)]);
        assert!(plan.has_drift());
    }

    #[test]
    fn parse_rejects_repeat_joins_and_all_units_joining() {
        // A second join for the same unit: it is already live by then.
        let err = reject("join:pu=2,after=10;join:pu=2,after=20", 4);
        assert!(err.contains("already joins"), "{err}");
        assert!(err.contains("cannot join again"), "{err}");
        // Joins covering every unit leave nothing live at start.
        let err = reject("join:pu=0,after=1;join:pu=1,after=2", 2);
        assert!(err.contains("at least one unit must be live"), "{err}");
        // A join out of range fails like any other fault.
        let err = reject("join:pu=4,after=1", 4);
        assert!(err.contains("out of range"), "{err}");
        // A join plus attempt-keyed faults on the same unit is fine, in
        // either listing order: joins sit outside the attempt timeline.
        assert!(FaultPlan::parse("panic:pu=2,nth=3;join:pu=2,after=10", 4).is_ok());
        assert!(FaultPlan::parse("join:pu=2,after=10;panic:pu=2,nth=3", 4).is_ok());
    }

    #[test]
    fn parse_rejects_malformed_drift_schedules() {
        // Non-monotonic step breakpoints.
        let err = reject("drift:pu=1,kind=step,points=5:1.5/5:2.0", 4);
        assert!(err.contains("strictly increasing"), "{err}");
        let err = reject("drift:pu=1,kind=step,points=9:1.5/3:2.0", 4);
        assert!(err.contains("strictly increasing"), "{err}");
        // Out-of-range factors.
        let err = reject("drift:pu=1,kind=ramp,from=0,n=4,to=0", 4);
        assert!(err.contains("drift factor"), "{err}");
        let err = reject("drift:pu=1,kind=ramp,from=0,n=4,to=-2", 4);
        assert!(err.contains("drift factor"), "{err}");
        let err = reject("drift:pu=1,kind=ramp,from=0,n=4,to=1e9", 4);
        assert!(err.contains("drift factor"), "{err}");
        let err = reject("drift:pu=1,kind=ramp,from=0,n=4,to=inf", 4);
        assert!(err.contains("drift factor"), "{err}");
        let err = reject("drift:pu=1,kind=step,points=3:200.0", 4);
        assert!(err.contains("drift factor"), "{err}");
        // Degenerate windows and shapes.
        let err = reject("drift:pu=1,kind=ramp,from=0,n=0,to=2", 4);
        assert!(err.contains("`n` must be at least 1"), "{err}");
        let err = reject("drift:pu=1,kind=step,points=", 4);
        assert!(err.contains("at least one"), "{err}");
        let err = reject("drift:pu=1,kind=sin,from=0,period=1,amp=0.5", 4);
        assert!(err.contains("period"), "{err}");
        let err = reject("drift:pu=1,kind=sin,from=0,period=8,amp=1.5", 4);
        assert!(err.contains("amp"), "{err}");
        let err = reject("drift:pu=1,kind=sin,from=0,period=8,amp=0", 4);
        assert!(err.contains("amp"), "{err}");
        let err = reject("drift:pu=1,kind=wobble,from=0", 4);
        assert!(err.contains("unknown drift kind"), "{err}");
    }

    #[test]
    fn elastic_serde_round_trip() {
        let plan = FaultPlan::parse(
            "join:pu=3,after=7;drift:pu=1,kind=step,points=2:1.5/9:0.8",
            4,
        )
        .unwrap();
        // Offline builds link a serde_json stub whose serializers always
        // error; the round trip is only meaningful with the real crate.
        let Ok(json) = serde_json::to_string(&plan) else {
            return;
        };
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(json.contains("\"fault\":\"join\""), "{json}");
        assert!(json.contains("\"fault\":\"drift_step\""), "{json}");
    }

    #[test]
    fn chaos_elastic_is_deterministic_and_well_formed() {
        let a = FaultPlan::chaos_elastic(42, 5, 8, 4);
        let b = FaultPlan::chaos_elastic(42, 5, 8, 4);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(
            FaultPlan::chaos_elastic(42, 5, 8, 0),
            FaultPlan::chaos(42, 5, 8),
            "elastic 0 degrades to the base chaos plan"
        );
        // The failure dimension is untouched by the elastic knob.
        let base = FaultPlan::chaos(42, 5, 8);
        assert!(a.faults.starts_with(&base.faults));

        // The test's own shape and the CLI's (`2n` failures, elastic 2).
        for seed in 0..32u64 {
            let plan = FaultPlan::chaos_elastic(seed, 5, 6, 5);
            plan.validate(5).unwrap();
            assert!(
                plan.faults.iter().all(|f| f.pu >= 1),
                "unit 0 stays untouched"
            );
            for n in [4, 6, 8] {
                FaultPlan::chaos_elastic(seed, n, 2 * n, 2)
                    .validate(n)
                    .unwrap();
            }
        }
        assert!(FaultPlan::chaos_elastic(7, 1, 4, 4).is_empty());
    }
}

#[cfg(test)]
mod node_tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_node_cli_syntax() {
        let plan = NodeFaultPlan::parse(
            "node-crash:2,6; partition:1|3,2.0,9.0; link-degrade:0-1,8,0,14",
            4,
        )
        .unwrap();
        assert_eq!(plan.crash_after(2), Some(6));
        assert_eq!(plan.crash_after(1), None);
        // Side `1` holds no coordinator, side `3` neither: side b (3)
        // is the cut side.
        assert!(plan.partitioned(3, 2.0));
        assert!(plan.partitioned(3, 8.999));
        assert!(!plan.partitioned(3, 9.0));
        assert!(!plan.partitioned(1, 5.0));
        assert_eq!(plan.degrade_factor(0, 1, 5.0), 8.0);
        assert_eq!(plan.degrade_factor(1, 0, 5.0), 8.0, "direction-agnostic");
        assert_eq!(plan.degrade_factor(0, 1, 14.0), 1.0);
        assert_eq!(plan.degrade_factor(0, 2, 5.0), 1.0);
    }

    #[test]
    fn partition_cut_side_avoids_the_coordinator() {
        // Coordinator on side a: side b is cut.
        let plan = NodeFaultPlan::parse("partition:0+1|2+3,1,2", 4).unwrap();
        assert!(plan.partitioned(2, 1.5) && plan.partitioned(3, 1.5));
        assert!(!plan.partitioned(0, 1.5) && !plan.partitioned(1, 1.5));
        // Coordinator on side b: side a is cut.
        let plan = NodeFaultPlan::parse("partition:2+3|0,1,2", 4).unwrap();
        assert!(plan.partitioned(2, 1.5) && plan.partitioned(3, 1.5));
        assert!(!plan.partitioned(0, 1.5));
    }

    #[test]
    fn parse_rejects_unknown_node_ids() {
        for spec in [
            "node-crash:4,2",
            "partition:1|4,0,5",
            "partition:4|1,0,5",
            "link-degrade:0-9,2,0,5",
        ] {
            match NodeFaultPlan::parse(spec, 4) {
                Err(FaultSpecError::UnknownTarget {
                    target: "node",
                    id,
                    count: 4,
                    ..
                }) => assert!(id >= 4, "{spec}"),
                other => panic!("{spec}: expected UnknownTarget, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rejects_overlapping_partition_windows() {
        // The later window is the bad value, whichever starts first.
        for spec in [
            "partition:0|1,0,5; partition:0|1,4,8",
            "partition:0|1,4,8; partition:0|1,0,5",
            "partition:0|1,0,9; partition:0|1,2,3",
        ] {
            match NodeFaultPlan::parse(spec, 3).unwrap_err() {
                FaultSpecError::BadValue {
                    part,
                    key: "window",
                    accepted,
                    ..
                } => {
                    assert!(spec.ends_with(&part), "{spec}: names {part}");
                    assert!(
                        accepted.starts_with("clear of node 1's partition"),
                        "{accepted}"
                    );
                }
                other => panic!("{spec}: expected an overlapping window, got {other:?}"),
            }
        }
        // Back-to-back windows (heal == next drop) are fine.
        assert!(NodeFaultPlan::parse("partition:0|1,0,5; partition:0|1,5,8", 3).is_ok());
    }

    #[test]
    fn parse_rejects_non_monotone_windows() {
        for spec in [
            "partition:0|1,5,5",
            "partition:0|1,9,2",
            "partition:0|1,-1,2",
            "link-degrade:0-1,2,inf,20",
        ] {
            assert!(
                matches!(
                    NodeFaultPlan::parse(spec, 3),
                    Err(FaultSpecError::BadValue { key: "window", .. })
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_specs_with_typed_errors() {
        let err = |spec| NodeFaultPlan::parse(spec, 3).unwrap_err();
        assert_eq!(err(""), FaultSpecError::Empty);
        for (spec, detail) in [
            (
                "partition:|1,0,5",
                "each partition side needs at least one node",
            ),
            (
                "partition:1|1+2,0,5",
                "node 1 appears on both partition sides",
            ),
            ("meteor:1,2", "unknown node fault kind `meteor`"),
            ("node-crash:1", "expected node-crash:node,after_chunks"),
        ] {
            match err(spec) {
                FaultSpecError::Syntax { part, detail: got } => {
                    assert_eq!(part, spec);
                    assert!(got.contains(detail), "{spec}: {got}");
                }
                other => panic!("{spec}: expected Syntax, got {other:?}"),
            }
        }
        assert!(matches!(
            err("link-degrade:1-1,2,0,5"),
            FaultSpecError::BadValue { key: "peer", .. }
        ));
        assert!(matches!(
            err("link-degrade:0-1,0.5,0,5"),
            FaultSpecError::BadValue { key: "factor", .. }
        ));
        assert!(matches!(
            err("node-crash:1,2; node-crash:1,5"),
            FaultSpecError::Repeated {
                target: "node",
                id: 1,
                ..
            }
        ));
        assert_eq!(
            NodeFaultPlan::parse("node-crash:0,1; node-crash:1,1", 2).unwrap_err(),
            FaultSpecError::NoSurvivor { target: "node" }
        );
    }

    #[test]
    fn pu_fault_grammar_points_node_kinds_at_node_faults() {
        for spec in [
            "node-crash:1,2",
            "partition:0|1,0,5",
            "link-degrade:0-1,2,0,5",
        ] {
            let err = FaultPlan::parse(spec, 4).unwrap_err().to_string();
            assert!(err.contains("--node-faults"), "{spec}: {err}");
        }
    }

    #[test]
    fn overlapping_link_degrades_compose_multiplicatively() {
        let plan =
            NodeFaultPlan::parse("link-degrade:0-1,2,0,10; link-degrade:1-0,3,5,10", 2).unwrap();
        assert_eq!(plan.degrade_factor(0, 1, 1.0), 2.0);
        assert_eq!(plan.degrade_factor(0, 1, 7.0), 6.0);
    }

    #[test]
    fn chaos_cluster_is_deterministic_and_always_valid() {
        for seed in 0..32u64 {
            let plan = NodeFaultPlan::chaos_cluster(seed, 5, 8);
            assert_eq!(plan, NodeFaultPlan::chaos_cluster(seed, 5, 8));
            plan.validate(5).unwrap();
            assert_eq!(plan.crash_after(0), None, "node 0 stays healthy");
            assert!(plan.partition_windows(0).is_empty());
        }
        assert!(NodeFaultPlan::chaos_cluster(3, 1, 8).is_empty());
        assert!(!NodeFaultPlan::chaos_cluster(3, 4, 6).is_empty());
    }

    #[test]
    fn parse_and_validate_agree_on_every_node_rule() {
        // One malformed fault per rule of `NodeFaultPlan::validate`, as
        // a spec and built by hand.
        let crash = |node, after_chunks| NodeFault {
            node,
            kind: NodeFaultKind::Crash { after_chunks },
        };
        let cut = |node, from_s, to_s| NodeFault {
            node,
            kind: NodeFaultKind::Partition { from_s, to_s },
        };
        let link = |node, peer, factor, from_s, to_s| NodeFault {
            node,
            kind: NodeFaultKind::LinkDegrade {
                peer,
                factor,
                from_s,
                to_s,
            },
        };
        let table = [
            ("node-crash:4,2", 4, vec![crash(4, 2)]),
            ("link-degrade:0-9,2,0,5", 4, vec![link(0, 9, 2.0, 0.0, 5.0)]),
            (
                "node-crash:1,2; node-crash:1,5",
                3,
                vec![crash(1, 2), crash(1, 5)],
            ),
            (
                "node-crash:0,1; node-crash:1,1",
                2,
                vec![crash(0, 1), crash(1, 1)],
            ),
            ("link-degrade:1-1,2,0,5", 3, vec![link(1, 1, 2.0, 0.0, 5.0)]),
            (
                "link-degrade:0-1,0.5,0,5",
                3,
                vec![link(0, 1, 0.5, 0.0, 5.0)],
            ),
            ("partition:0|1,9,2", 3, vec![cut(1, 9.0, 2.0)]),
            (
                "partition:0|1,0,5; partition:0|1,4,8",
                3,
                vec![cut(1, 0.0, 5.0), cut(1, 4.0, 8.0)],
            ),
        ];
        for (spec, n, faults) in table {
            let parsed = NodeFaultPlan::parse(spec, n).unwrap_err();
            let built = NodeFaultPlan::new(faults).validate(n).unwrap_err();
            assert!(
                super::tests::same_rule(&parsed, &built),
                "{spec}: {parsed} vs {built}"
            );
        }
    }
}
