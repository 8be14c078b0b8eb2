//! `zoo`: the three checked-in scenario files (falling_block, shear_band,
//! solcx) parsed and run through `run_scenario`. Set-up-heavy: the
//! nonlinear scenarios rebuild the solver at every re-linearization, and
//! solcx is checked against its analytic solution.

use crate::layers::Spans;
use crate::reference::{self, Tolerance};
use crate::{Ops, Workload};
use ptatin_scenarios::{parse_scenario_file, run_scenario, RunSummary, Scenario, ScenarioSpec};
use std::path::{Path, PathBuf};

/// Scenario files under `examples/scenarios/`, in run order, with the span
/// each one is timed under.
const SCENARIOS: [(&str, &str); 3] = [
    ("falling_block", "scenario.falling_block_s"),
    ("shear_band", "scenario.shear_band_s"),
    ("solcx", "scenario.solcx_s"),
];

pub struct Zoo {
    variant: usize,
    /// Index range into [`SCENARIOS`] (smoke runs only solcx).
    first: usize,
    dir: PathBuf,
}

pub struct Outcome {
    name: &'static str,
    summary: RunSummary,
    tol: Tolerance,
    /// Nonlinear iteration cap (None for the linear solcx solve).
    max_it: Option<usize>,
}

impl Zoo {
    pub fn new(seed: u64, smoke: bool) -> Self {
        Self {
            variant: reference::variant(seed),
            first: if smoke { 2 } else { 0 },
            dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/scenarios"),
        }
    }

    fn parse(&self, name: &str) -> ScenarioSpec {
        let path = self.dir.join(format!("{name}.scn"));
        let mut spec = parse_scenario_file(&path)
            // PANIC-OK: the checked-in scenario files are part of the
            // benchmarked program; a parse failure aborts the run.
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let seed = reference::zoo_seed(self.variant);
        match &mut spec.scenario {
            Scenario::ShearBand(c) => c.seed = seed,
            Scenario::FallingBlock(c) => c.seed = seed,
            _ => {}
        }
        spec
    }
}

impl Workload for Zoo {
    type Input = Vec<ScenarioSpec>;
    type Output = Vec<Outcome>;

    fn setup(&self) -> Self::Input {
        SCENARIOS[self.first..]
            .iter()
            .map(|(name, _)| self.parse(name))
            .collect()
    }

    fn run(&self, input: Self::Input, spans: &mut Spans) -> Self::Output {
        input
            .into_iter()
            .zip(&SCENARIOS[self.first..])
            .map(|(spec, &(name, span))| {
                let summary = spans.time(span, || run_scenario(&spec.scenario, spec.steps));
                let nonlinear = |c: &ptatin_core::NonlinearConfig| {
                    (Tolerance::nonlinear(c.rel_tol), Some(c.max_it))
                };
                let (tol, max_it) = match &spec.scenario {
                    Scenario::ShearBand(c) => nonlinear(&c.nonlinear),
                    Scenario::FallingBlock(c) => nonlinear(&c.nonlinear),
                    Scenario::SolCx(c) => (Tolerance::linear(c.rtol), None),
                    // PANIC-OK: SCENARIOS lists only the three kinds above.
                    other => panic!("unexpected scenario kind {}", other.kind()),
                };
                Outcome {
                    name,
                    summary,
                    tol,
                    max_it,
                }
            })
            .collect()
    }

    fn assess(&self, out: Self::Output, spans: &mut Spans) -> Ops {
        let mut ops = Ops::default();
        for o in out {
            let s = &o.summary;
            let problems = reference::check_zoo(o.name, self.variant, s, o.tol);
            let observed: Vec<String> = s
                .metrics
                .iter()
                .map(|(m, v)| format!("\"{m}\": {v:?}"))
                .collect();
            println!(
                "{{\"observed\": {{\"workload\": \"zoo\", \"variant\": {}, \"scenario\": \"{}\", {}}}}}",
                self.variant,
                o.name,
                observed.join(", ")
            );
            match o.max_it {
                Some(max_it) => {
                    spans.add("core.newton_its", s.iterations as f64);
                    spans.add("core.krylov_its", s.metric("total_krylov").unwrap_or(0.0));
                    spans.add(
                        "core.capped_steps",
                        f64::from(u8::from(s.iterations >= max_it)),
                    );
                }
                None => spans.add("core.krylov_its", s.iterations as f64),
            }
            ops.record(o.name, problems);
        }
        ops
    }

    fn children(&self) -> &'static [&'static str] {
        &[
            "scenario.falling_block_s",
            "scenario.shear_band_s",
            "scenario.solcx_s",
        ]
    }
}
