//! Lumped-parameter (RC network) thermal model of one server's CPU.
//!
//! Two thermal nodes — the CPU **die** and its **heatsink** — connected by
//! conduction resistance `R_ds`, with the sink coupled to ambient air
//! through the fan-dependent convective resistance `R_sa`
//! (see [`crate::fan::FanBank::sink_resistance`]):
//!
//! ```text
//!   P ──▶ [die C_d] ──R_ds── [sink C_s] ──R_sa── ambient
//! ```
//!
//! This is the same physics the paper's RC-model baseline \[5\] assumes, and
//! it produces the first-order exponential approach to a load-dependent
//! steady state that Eq. (1)/(3) of the paper presuppose. The *simulated
//! ground truth* uses it with full knowledge of per-VM power; the paper's
//! point is that a learner must predict the steady state without that
//! knowledge.

use serde::{Deserialize, Serialize};
use vmtherm_obs::{self as obs, names};
use vmtherm_units::{Celsius, Seconds, Watts};

/// RK4 substeps run, counted once per [`integrate`] batch; substeps a
/// plan skips at a bitwise fixed point are not.
static OBS_SUBSTEPS: obs::LazyCounter = obs::LazyCounter::new(names::METRIC_THERMAL_SUBSTEPS);

/// Static parameters of the two-node network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Die heat capacity (J/K). Small: the die reacts in seconds.
    pub c_die: f64,
    /// Heatsink + spreader heat capacity (J/K). Large: minutes-scale.
    pub c_sink: f64,
    /// Die→sink conduction resistance (K/W).
    pub r_die_sink: f64,
}

impl ThermalParams {
    /// Validates and constructs parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    #[must_use]
    pub fn new(c_die: f64, c_sink: f64, r_die_sink: f64) -> Self {
        assert!(
            c_die > 0.0 && c_sink > 0.0 && r_die_sink > 0.0,
            "thermal params must be positive"
        );
        ThermalParams {
            c_die,
            c_sink,
            r_die_sink,
        }
    }
}

impl Default for ThermalParams {
    /// Commodity 2U server: ~7 s die time constant, ~2 min sink time
    /// constant at four medium fans, chosen so the system stabilises within
    /// the paper's `t_break = 600 s`.
    fn default() -> Self {
        ThermalParams {
            c_die: 150.0,
            c_sink: 1100.0,
            r_die_sink: 0.05,
        }
    }
}

/// Mutable thermal state: the two node temperatures (°C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThermalState {
    /// CPU die (junction) temperature — what the sensor reports.
    pub die_c: f64,
    /// Heatsink temperature.
    pub sink_c: f64,
}

impl ThermalState {
    /// Both nodes in equilibrium with the given ambient (a powered-off or
    /// long-idle machine).
    #[must_use]
    pub fn at_ambient(ambient_c: Celsius) -> Self {
        ThermalState {
            die_c: ambient_c.get(),
            sink_c: ambient_c.get(),
        }
    }
}

/// The integrating thermal network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalNetwork {
    params: ThermalParams,
    state: ThermalState,
}

/// Sanity window for simulated node temperatures (°C). Nothing in a
/// datacenter model should leave it; the integrator debug-asserts that.
const MIN_PLAUSIBLE_C: f64 = -100.0;
const MAX_PLAUSIBLE_C: f64 = 500.0;

impl ThermalNetwork {
    /// A network starting in equilibrium with `ambient_c`.
    #[must_use]
    pub fn new(params: ThermalParams, ambient_c: Celsius) -> Self {
        ThermalNetwork {
            params,
            state: ThermalState::at_ambient(ambient_c),
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> ThermalState {
        self.state
    }

    /// Die temperature (°C) — the quantity the paper predicts.
    #[must_use]
    pub fn die_temperature(&self) -> f64 {
        self.state.die_c
    }

    /// Parameters.
    #[must_use]
    pub fn params(&self) -> ThermalParams {
        self.params
    }

    /// Advances the network by `dt_secs` under constant heat input
    /// `power_w`, ambient `ambient_c` and sink resistance `r_sink_amb`.
    ///
    /// Integrates with classic RK4, sub-stepping so the internal step never
    /// exceeds 1 s (the die time constant is ~7 s; RK4 at 1 s is deep inside
    /// its stability region and accurate to ~1e-6 K here). The engine
    /// batches the same three phases across servers (plan, integrate,
    /// commit), so this is the batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` or `r_sink_amb` is non-positive.
    pub fn step(&mut self, power_w: Watts, ambient_c: Celsius, r_sink_amb: f64, dt_secs: Seconds) {
        let mut job = self.plan(power_w, ambient_c, r_sink_amb, dt_secs);
        integrate(std::slice::from_mut(&mut job));
        self.commit(job);
    }

    /// The integration [`ThermalNetwork::step`] would run, not yet run:
    /// pass it to [`integrate`], alone or batched with other networks'
    /// plans, then hand the result to [`ThermalNetwork::commit`].
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` or `r_sink_amb` is non-positive.
    #[must_use]
    pub(crate) fn plan(
        &self,
        power_w: Watts,
        ambient_c: Celsius,
        r_sink_amb: f64,
        dt_secs: Seconds,
    ) -> Integration {
        let dt = dt_secs.get();
        assert!(dt > 0.0, "step: non-positive dt");
        assert!(r_sink_amb > 0.0, "step: non-positive sink resistance");
        let substeps = dt.ceil().max(1.0) as usize;
        Integration {
            params: self.params,
            state: self.state,
            power_w: power_w.get(),
            ambient_c: ambient_c.get(),
            r_sink_amb,
            h: dt / substeps as f64,
            substeps,
        }
    }

    /// Adopts the end state of an integrated [`ThermalNetwork::plan`].
    pub(crate) fn commit(&mut self, job: Integration) {
        self.state = job.state;
        debug_assert!(
            self.state.die_c.is_finite() && self.state.sink_c.is_finite(),
            "thermal integrator produced a non-finite temperature: {:?}",
            self.state
        );
        debug_assert!(
            (MIN_PLAUSIBLE_C..=MAX_PLAUSIBLE_C).contains(&self.state.die_c)
                && (MIN_PLAUSIBLE_C..=MAX_PLAUSIBLE_C).contains(&self.state.sink_c),
            "thermal integrator left the plausible range: {:?}",
            self.state
        );
    }

    /// Instantaneous node derivatives `(dT_die/dt, dT_sink/dt)` in °C/s
    /// at the current state under the given conditions — the quantity an
    /// event-driven scheduler thresholds to decide whether a server is
    /// close enough to steady state to sleep.
    #[must_use]
    pub fn rates(&self, power_w: Watts, ambient_c: Celsius, r_sink_amb: f64) -> (f64, f64) {
        derivatives(
            self.params,
            self.state,
            power_w.get(),
            ambient_c.get(),
            r_sink_amb,
        )
    }

    /// Closed-form steady state under constant conditions: the temperatures
    /// the network converges to as `t → ∞`.
    #[must_use]
    pub fn steady_state(
        &self,
        power_w: Watts,
        ambient_c: Celsius,
        r_sink_amb: f64,
    ) -> ThermalState {
        steady_state(self.params, power_w, ambient_c, r_sink_amb)
    }
}

/// Closed-form steady state of the two-node chain: all of `P` flows through
/// both resistances, so `T_sink = T_amb + P·R_sa` and
/// `T_die = T_sink + P·R_ds`.
#[must_use]
pub fn steady_state(
    params: ThermalParams,
    power_w: Watts,
    ambient_c: Celsius,
    r_sink_amb: f64,
) -> ThermalState {
    let sink = ambient_c.get() + power_w.get() * r_sink_amb;
    let die = sink + power_w.get() * params.r_die_sink;
    ThermalState {
        die_c: die,
        sink_c: sink,
    }
}

/// Plans [`integrate`] runs side by side. One RK4 substep is a chain of
/// eight dependent divisions, so a lone network waits on division
/// latency; the chains of different networks are independent, and
/// interleaving four of them keeps the divider busy.
pub(crate) const LANES: usize = 4;

/// One network's pending integration, from [`ThermalNetwork::plan`]:
/// its parameters and start state, constant inputs, substep length `h`
/// and substep count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Integration {
    params: ThermalParams,
    state: ThermalState,
    power_w: f64,
    ambient_c: f64,
    r_sink_amb: f64,
    h: f64,
    /// Substeps to run; after [`integrate`], the substeps it ran.
    substeps: usize,
}

/// Runs every plan's RK4 substeps, [`LANES`] plans at a time side by
/// side. Each plan ends in exactly the state its full substep sequence
/// reaches alone, so the end states do not depend on how plans are
/// batched.
///
/// A plan stops early at a bitwise fixed point. Its inputs are constant
/// over the integration, so a substep that returns its input state bit
/// for bit would return it again at every later substep: the remaining
/// substeps cannot change a bit, and are not run.
pub(crate) fn integrate(jobs: &mut [Integration]) {
    let mut groups = jobs.chunks_exact_mut(LANES);
    for group in &mut groups {
        integrate_lanes(group);
    }
    integrate_lanes(groups.into_remainder());
    if obs::enabled() {
        OBS_SUBSTEPS.add(jobs.iter().map(|job| job.substeps as u64).sum());
    }
}

/// Substep `k` of every lane still moving, for `k` from 0 until no lane
/// is. A lane stops after its last substep or at the first substep that
/// returns its input state bit for bit, and keeps the count it ran.
// Forced inline so a full group's loop sees the constant lane count.
#[inline(always)]
fn integrate_lanes(lanes: &mut [Integration]) {
    let mut k = 0;
    loop {
        let mut moving = false;
        for lane in lanes.iter_mut() {
            if k < lane.substeps {
                let next = rk4_step(
                    lane.params,
                    lane.state,
                    lane.power_w,
                    lane.ambient_c,
                    lane.r_sink_amb,
                    lane.h,
                );
                if k + 1 < lane.substeps {
                    if next.die_c.to_bits() == lane.state.die_c.to_bits()
                        && next.sink_c.to_bits() == lane.state.sink_c.to_bits()
                    {
                        lane.substeps = k + 1;
                    } else {
                        moving = true;
                    }
                }
                lane.state = next;
            }
        }
        if !moving {
            return;
        }
        k += 1;
    }
}

fn derivatives(
    p: ThermalParams,
    s: ThermalState,
    power_w: f64,
    ambient_c: f64,
    r_sa: f64,
) -> (f64, f64) {
    let q_ds = (s.die_c - s.sink_c) / p.r_die_sink;
    let q_sa = (s.sink_c - ambient_c) / r_sa;
    ((power_w - q_ds) / p.c_die, (q_ds - q_sa) / p.c_sink)
}

fn rk4_step(
    p: ThermalParams,
    s: ThermalState,
    power_w: f64,
    ambient_c: f64,
    r_sa: f64,
    h: f64,
) -> ThermalState {
    let f = |st: ThermalState| derivatives(p, st, power_w, ambient_c, r_sa);
    let k1 = f(s);
    let k2 = f(ThermalState {
        die_c: s.die_c + 0.5 * h * k1.0,
        sink_c: s.sink_c + 0.5 * h * k1.1,
    });
    let k3 = f(ThermalState {
        die_c: s.die_c + 0.5 * h * k2.0,
        sink_c: s.sink_c + 0.5 * h * k2.1,
    });
    let k4 = f(ThermalState {
        die_c: s.die_c + h * k3.0,
        sink_c: s.sink_c + h * k3.1,
    });
    ThermalState {
        die_c: s.die_c + h / 6.0 * (k1.0 + 2.0 * k2.0 + 2.0 * k3.0 + k4.0),
        sink_c: s.sink_c + h / 6.0 * (k1.1 + 2.0 * k2.1 + 2.0 * k3.1 + k4.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R_SA: f64 = 0.10; // four medium fans, roughly

    fn c(v: f64) -> Celsius {
        Celsius::new(v)
    }

    fn w(v: f64) -> Watts {
        Watts::new(v)
    }

    fn s(v: f64) -> Seconds {
        Seconds::new(v)
    }

    fn network() -> ThermalNetwork {
        ThermalNetwork::new(ThermalParams::default(), c(25.0))
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut n = network();
        n.step(Watts::ZERO, c(25.0), R_SA, s(600.0));
        assert!((n.die_temperature() - 25.0).abs() < 1e-9);
        assert!((n.state().sink_c - 25.0).abs() < 1e-9);
    }

    #[test]
    fn converges_to_closed_form_steady_state() {
        let mut n = network();
        let target = n.steady_state(w(180.0), c(25.0), R_SA);
        for _ in 0..2000 {
            n.step(w(180.0), c(25.0), R_SA, s(1.0));
        }
        assert!((n.die_temperature() - target.die_c).abs() < 1e-3);
        assert!((n.state().sink_c - target.sink_c).abs() < 1e-3);
    }

    #[test]
    fn steady_state_values_are_physical() {
        let st = steady_state(ThermalParams::default(), w(180.0), c(25.0), R_SA);
        // 25 + 180*0.10 = 43 at sink, + 180*0.05 = 52 at die.
        assert!((st.sink_c - 43.0).abs() < 1e-12);
        assert!((st.die_c - 52.0).abs() < 1e-12);
    }

    #[test]
    fn warming_is_monotone_from_cold_start() {
        let mut n = network();
        let mut prev = n.die_temperature();
        for _ in 0..600 {
            n.step(w(150.0), c(25.0), R_SA, s(1.0));
            let t = n.die_temperature();
            assert!(t >= prev - 1e-9, "die cooled while warming up");
            prev = t;
        }
    }

    #[test]
    fn cooling_after_load_drop() {
        let mut n = network();
        for _ in 0..1200 {
            n.step(w(200.0), c(25.0), R_SA, s(1.0));
        }
        let hot = n.die_temperature();
        for _ in 0..1200 {
            n.step(w(50.0), c(25.0), R_SA, s(1.0));
        }
        assert!(n.die_temperature() < hot - 5.0);
    }

    #[test]
    fn step_size_invariance() {
        // Integrating 300 s in one call or in 300 calls must agree closely.
        let mut a = network();
        let mut b = network();
        a.step(w(170.0), c(22.0), R_SA, s(300.0));
        for _ in 0..300 {
            b.step(w(170.0), c(22.0), R_SA, s(1.0));
        }
        assert!((a.die_temperature() - b.die_temperature()).abs() < 1e-6);
    }

    #[test]
    fn whole_second_steps_compose_bitwise() {
        // The event-driven engine relies on this exactly: integrating a
        // whole-second interval in one call sub-steps at h = 1 s, the
        // same h the dense loop uses, so the RK4 sequence is *bitwise*
        // identical — not merely close — under constant inputs.
        let mut a = network();
        let mut b = network();
        a.step(w(170.0), c(22.0), R_SA, s(300.0));
        for _ in 0..300 {
            b.step(w(170.0), c(22.0), R_SA, s(1.0));
        }
        assert_eq!(a.state().die_c.to_bits(), b.state().die_c.to_bits());
        assert_eq!(a.state().sink_c.to_bits(), b.state().sink_c.to_bits());
    }

    #[test]
    fn batched_lanes_match_scalar_steps_bitwise() {
        // 11 plans: two full groups of LANES plus a remainder, mixing
        // substep counts (1, 2, 3, 16 and 2.5 s -> 3 substeps of 5/6 s),
        // parameters, start states and a zero-power network.
        let dts = [1.0, 2.0, 3.0, 16.0, 2.5];
        let cases: Vec<(ThermalNetwork, f64, f64, f64, f64)> = (0..11)
            .map(|i| {
                let f = i as f64;
                let mut n = ThermalNetwork::new(
                    ThermalParams::new(120.0 + 10.0 * f, 900.0 + 50.0 * f, 0.04 + 0.002 * f),
                    c(22.0 + 0.5 * f),
                );
                n.state = ThermalState {
                    die_c: 40.0 + 3.0 * f,
                    sink_c: 30.0 + 1.5 * f,
                };
                let power = if i == 6 { 0.0 } else { 60.0 + 17.0 * f };
                (
                    n,
                    power,
                    21.0 + 0.3 * f,
                    0.08 + 0.01 * f,
                    dts[i % dts.len()],
                )
            })
            .collect();
        assert!(cases.len() > 2 * LANES && !cases.len().is_multiple_of(LANES));
        let mut jobs: Vec<Integration> = cases
            .iter()
            .map(|(n, p, amb, r, dt)| n.plan(w(*p), c(*amb), *r, s(*dt)))
            .collect();
        assert_eq!(jobs[4].substeps, 3);
        assert_eq!(jobs[4].h, 2.5 / 3.0);
        integrate(&mut jobs);
        for ((n, p, amb, r, dt), job) in cases.iter().zip(&jobs) {
            let mut scalar = *n;
            scalar.step(w(*p), c(*amb), *r, s(*dt));
            // The pre-batching integrator: RK4 substeps one after another.
            let substeps = dt.ceil() as usize;
            let mut state = n.state();
            for _ in 0..substeps {
                state = rk4_step(n.params(), state, *p, *amb, *r, dt / substeps as f64);
            }
            for got in [scalar.state(), job.state] {
                assert_eq!(got.die_c.to_bits(), state.die_c.to_bits());
                assert_eq!(got.sink_c.to_bits(), state.sink_c.to_bits());
            }
        }
    }

    /// One RK4 substep under `job`'s inputs.
    fn substep(job: &Integration, state: ThermalState) -> ThermalState {
        rk4_step(
            job.params,
            state,
            job.power_w,
            job.ambient_c,
            job.r_sink_amb,
            job.h,
        )
    }

    /// The integrator without lanes or the fixed-point exit: every
    /// planned substep, one after another, with the state before each.
    fn plain_substeps(job: &Integration) -> Vec<ThermalState> {
        let mut path = vec![job.state];
        for _ in 0..job.substeps {
            path.push(substep(job, path[path.len() - 1]));
        }
        path
    }

    fn same_bits(a: ThermalState, b: ThermalState) -> bool {
        a.die_c.to_bits() == b.die_c.to_bits() && a.sink_c.to_bits() == b.sink_c.to_bits()
    }

    /// Plain substeps from `job`'s start state up to the first one that
    /// returns its input bit for bit; the last state is that fixed point.
    fn path_to_fixed_point(job: &Integration) -> Vec<ThermalState> {
        let mut path = vec![job.state];
        loop {
            let last = path[path.len() - 1];
            let next = substep(job, last);
            if same_bits(next, last) {
                return path;
            }
            path.push(next);
            assert!(path.len() < 100_000, "no bitwise fixed point: {job:?}");
        }
    }

    #[test]
    fn fixed_point_exit_matches_the_plain_loop_bitwise() {
        // Every substep count from 1 to 16 and two fractional intervals
        // (3 substeps of 5/6 s, 8 of 15/16 s), each from three starts:
        // far from steady state, a few substeps before a bitwise fixed
        // point, and at one. 54 plans: 13 full lane groups and a
        // remainder of 2, so every group mixes counts and starts.
        let dts: Vec<f64> = (1..=16).map(f64::from).chain([2.5, 7.5]).collect();
        let mut jobs: Vec<Integration> = (0..dts.len() * 3)
            .map(|i| {
                let f = i as f64;
                let params =
                    ThermalParams::new(120.0 + 3.0 * f, 900.0 + 20.0 * f, 0.04 + 0.001 * f);
                let power = if i == 10 { 0.0 } else { 40.0 + 7.0 * f };
                let (ambient, r_sa) = (21.0 + 0.2 * f, 0.08 + 0.002 * f);
                let steady = steady_state(params, w(power), c(ambient), r_sa);
                let near = ThermalNetwork {
                    params,
                    state: ThermalState {
                        die_c: steady.die_c + 0.02,
                        sink_c: steady.sink_c + 0.01,
                    },
                };
                let mut job = near.plan(w(power), c(ambient), r_sa, s(dts[i / 3]));
                let path = path_to_fixed_point(&job);
                job.state = match i % 3 {
                    0 => ThermalState {
                        die_c: 30.0 + f,
                        sink_c: 28.0 + 0.5 * f,
                    },
                    // Reaches the fixed point after half its substeps.
                    1 => path[path.len() - 1 - job.substeps / 2],
                    _ => path[path.len() - 1],
                };
                job
            })
            .collect();
        assert_eq!(jobs.len() % LANES, 2);

        let plain: Vec<Vec<ThermalState>> = jobs.iter().map(plain_substeps).collect();
        let planned: Vec<usize> = jobs.iter().map(|job| job.substeps).collect();
        integrate(&mut jobs);

        let (mut starts_fixed, mut stops_midway, mut die_settles_first) = (0, 0, 0);
        for ((job, path), planned) in jobs.iter().zip(&plain).zip(planned) {
            let end = path[planned];
            assert!(
                same_bits(job.state, end),
                "{job:?} ended at {:?}, the plain loop at {end:?}",
                job.state
            );
            // The substeps run: through the first that returned its input.
            let ran = (1..=planned)
                .find(|&k| same_bits(path[k], path[k - 1]))
                .unwrap_or(planned);
            assert_eq!(job.substeps, ran, "{job:?}");
            starts_fixed += usize::from(planned > 1 && ran == 1);
            stops_midway += usize::from(ran > 1 && ran < planned);
            // A substep that keeps the die's bits but moves the sink's,
            // short of the end state.
            die_settles_first += usize::from((1..ran).any(|k| {
                path[k].die_c.to_bits() == path[k - 1].die_c.to_bits()
                    && !same_bits(path[k], path[k - 1])
                    && !same_bits(path[k], end)
            }));
        }
        assert!(
            starts_fixed > 0 && stops_midway > 0 && die_settles_first > 0,
            "cases do not exercise the exit: {starts_fixed} start fixed, \
             {stops_midway} stop midway, {die_settles_first} settle the die first"
        );
    }

    #[test]
    fn rates_match_finite_differences_near_equilibrium() {
        let mut n = network();
        n.step(w(150.0), c(25.0), R_SA, s(3000.0));
        // Deep in steady state both derivatives are tiny...
        let (d_die, d_sink) = n.rates(w(150.0), c(25.0), R_SA);
        assert!(d_die.abs() < 1e-3 && d_sink.abs() < 1e-3);
        // ...and from a cold start under load, strongly positive.
        let cold = network();
        let (d_die, d_sink) = cold.rates(w(150.0), c(25.0), R_SA);
        assert!(d_die > 0.1, "die rate {d_die}");
        assert!(d_sink >= 0.0, "sink rate {d_sink}");
    }

    #[test]
    fn higher_ambient_raises_stable_temperature() {
        let p = ThermalParams::default();
        let cold = steady_state(p, w(150.0), c(18.0), R_SA);
        let warm = steady_state(p, w(150.0), c(28.0), R_SA);
        assert!((warm.die_c - cold.die_c - 10.0).abs() < 1e-12);
    }

    #[test]
    fn lower_sink_resistance_cools_the_die() {
        let p = ThermalParams::default();
        let few_fans = steady_state(p, w(150.0), c(25.0), 0.15);
        let many_fans = steady_state(p, w(150.0), c(25.0), 0.08);
        assert!(many_fans.die_c < few_fans.die_c);
    }

    #[test]
    fn settles_within_break_time_at_typical_fan_levels() {
        // The paper's t_break = 600 s; with defaults and 4 medium fans the
        // die must be within 1.5 °C of steady state by then.
        let mut n = network();
        let target = n.steady_state(w(180.0), c(25.0), R_SA).die_c;
        for _ in 0..600 {
            n.step(w(180.0), c(25.0), R_SA, s(1.0));
        }
        assert!(
            (n.die_temperature() - target).abs() < 1.5,
            "not settled: {} vs {}",
            n.die_temperature(),
            target
        );
    }

    #[test]
    #[should_panic(expected = "non-positive dt")]
    fn zero_dt_panics() {
        network().step(w(100.0), c(25.0), R_SA, Seconds::ZERO);
    }
}
