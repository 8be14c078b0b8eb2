//! Reference outputs recorded at the commit that introduced the benchmark,
//! and the tolerances the checks allow.
//!
//! The seed selects one of [`VARIANTS`] input variants (the jitter seed of
//! the material points, and for `rift` the damage-zone draw), so every
//! input the benchmark can generate has a recorded reference. Tolerances
//! come from each solve's own convergence tolerance, never from round-off:
//! a change that moves results at the 1e-12 level, or flips one nonlinear
//! iteration at a stopping knife edge, still passes; a wrong answer does
//! not.

use ptatin_scenarios::RunSummary;

/// Input variants the seed selects from.
pub const VARIANTS: u64 = 8;

pub fn variant(seed: u64) -> usize {
    (seed % VARIANTS) as usize
}

/// The rift model seed (material-point jitter and damage-zone draw) of a
/// variant. Seeds 1–24 all take 5 Newton iterations on steps 1 and 2, but
/// steps 3 and 4 take anywhere from 1 to 5, which moves the solver work
/// of a repetition by ±11%. These are the seeds among them whose steps
/// take 5, 5, 5 and 2 iterations (229–237 Krylov iterations in all), so
/// the spread across seeds measures the host rather than the input.
pub fn rift_seed(variant: usize) -> u64 {
    [3, 5, 13, 14, 15, 18, 19, 21][variant]
}

/// The point-jitter seed of the falling_block and shear_band scenarios
/// (their iteration counts do not depend on it).
pub fn zoo_seed(variant: usize) -> u64 {
    1 + variant as u64
}

/// Relative agreement band for a solve's outputs.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    pub rel: f64,
}

impl Tolerance {
    /// Outputs of a nonlinear solve that stops when ‖F‖ falls below
    /// `rel_tol` of its first value. Stopping one iteration earlier or
    /// later moves the solution by about `rel_tol`; diagnostics that
    /// integrate over the velocity field or count yielded points are
    /// allowed ten times that.
    pub fn nonlinear(rel_tol: f64) -> Self {
        Self {
            rel: 10.0 * rel_tol,
        }
    }

    /// Linear verification solves (solcx): the Krylov solve stops at
    /// `rtol` of the residual; with the 1e4 viscosity jump the algebraic
    /// share of the L² error is at most ~1e4·rtol of the solution, which
    /// stays below 1e-3 of the discretization error measured at 8×2×8.
    pub fn linear(rtol: f64) -> Self {
        Self { rel: 1e7 * rtol }
    }

    /// `None` when `got` is within the band around `want`, else a message.
    pub fn check(&self, what: &str, got: f64, want: f64) -> Option<String> {
        let ok = got.is_finite() && (got - want).abs() <= self.rel * want.abs();
        (!ok).then(|| {
            format!(
                "{what} = {got:e}, reference {want:e} (rel tol {:e})",
                self.rel
            )
        })
    }
}

/// Reference state of the rift model after one committed step.
#[derive(Clone, Copy, Debug)]
pub struct RiftRef {
    pub time: f64,
    pub max_topography: f64,
    pub velocity_norm: f64,
}

/// Rift references: `[variant][step - 1] = (time, max_topography, ‖u‖₂)`.
const RIFT: [[[f64; 3]; crate::rift::STEPS]; VARIANTS as usize] = [
    // variant 0
    [
        [0.05, -0.002387739622389251, 21.74109652418353],
        [0.1, -0.008988229977714313, 19.599666003944424],
        [0.15000000000000002, -0.0157430743728576, 19.549946458880278],
        [0.2, -0.022495148346808658, 19.525011116712445],
    ],
    // variant 1
    [
        [0.05, -0.003074640705932774, 21.87863180237453],
        [0.1, -0.010093841699295059, 19.708848804238347],
        [
            0.15000000000000002,
            -0.017066140337601343,
            19.659306080440885,
        ],
        [0.2, -0.023848592277695646, 19.629681868968124],
    ],
    // variant 2
    [
        [0.05, -0.0028026240491010324, 22.231337265619363],
        [0.1, -0.00963697179239309, 19.840287725731457],
        [
            0.15000000000000002,
            -0.016370092773934752,
            19.780729605210407,
        ],
        [0.2, -0.023072543392747558, 19.745728016277955],
    ],
    // variant 3
    [
        [0.05, -0.0034323480395167527, 21.52691937375419],
        [0.1, -0.010582538005212916, 19.495400915278594],
        [
            0.15000000000000002,
            -0.017610425730989143,
            19.448467542042835,
        ],
        [0.2, -0.0246185564447281, 19.42962971443798],
    ],
    // variant 4
    [
        [0.05, -0.0027672723097457164, 21.789209409423055],
        [0.1, -0.0098225776269667, 19.59609168922931],
        [
            0.15000000000000002,
            -0.01694655115354704,
            19.554900471670564,
        ],
        [0.2, -0.023981774196903394, 19.533237774409784],
    ],
    // variant 5
    [
        [0.05, -0.0032243252467555328, 21.801609173212608],
        [0.1, -0.010367554802956036, 19.56941506631656],
        [
            0.15000000000000002,
            -0.017523072943235407,
            19.51638077122282,
        ],
        [0.2, -0.024682294429234974, 19.48629540350883],
    ],
    // variant 6
    [
        [0.05, -0.0028836752793813814, 22.13583076014829],
        [0.1, -0.009898784627461743, 19.815787533498565],
        [0.15000000000000002, -0.01682896490035446, 19.76783924446183],
        [0.2, -0.023560218878343364, 19.74579004003258],
    ],
    // variant 7
    [
        [0.05, -0.0030279046116127306, 21.79550768710786],
        [0.1, -0.0101757193068156, 19.607649587798733],
        [0.15000000000000002, -0.01737986469648134, 19.56286462568625],
        [0.2, -0.024546102221772226, 19.5404788689559],
    ],
];

/// Check the state after committed step `step` (0-based) against the
/// reference of `variant`.
pub fn check_rift_step(variant: usize, step: usize, got: RiftRef, tol: Tolerance) -> Vec<String> {
    let [time, max_topography, velocity_norm] = RIFT[variant][step];
    [
        tol.check("time", got.time, time),
        tol.check("max_topography", got.max_topography, max_topography),
        tol.check("velocity_norm", got.velocity_norm, velocity_norm),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Check a scenario's diagnostics against the reference of `variant` and
/// against the physics every variant must show.
pub fn check_zoo(scenario: &str, variant: usize, s: &RunSummary, tol: Tolerance) -> Vec<String> {
    let mut problems = Vec::new();
    if !s.converged {
        problems.push("did not converge".to_string());
    }
    problems.extend(s.error.clone());
    for (metric, want) in zoo(scenario, variant) {
        match s.metric(metric) {
            Some(got) => problems.extend(tol.check(metric, got, *want)),
            None => problems.push(format!("metric {metric} missing")),
        }
    }
    problems.extend(zoo_physics(scenario, s));
    problems
}

/// Zoo references: `(metric, value)` per scenario and variant.
fn zoo(scenario: &str, variant: usize) -> &'static [(&'static str, f64)] {
    match scenario {
        "falling_block" => &FALLING_BLOCK[variant],
        "shear_band" => &SHEAR_BAND[variant],
        "solcx" => &SOLCX,
        _ => &[],
    }
}

const FALLING_BLOCK: [[(&str, f64); 2]; VARIANTS as usize] = [
    [
        ("block_sink_velocity", -6.1229269133587455e-06),
        ("eta_contrast", 63.77492841040603),
    ],
    [
        ("block_sink_velocity", -6.20239335537722e-06),
        ("eta_contrast", 64.260116839504),
    ],
    [
        ("block_sink_velocity", -6.397604223213664e-06),
        ("eta_contrast", 65.36237602972116),
    ],
    [
        ("block_sink_velocity", -6.074488957802998e-06),
        ("eta_contrast", 62.46462308180508),
    ],
    [
        ("block_sink_velocity", -6.3244839670079775e-06),
        ("eta_contrast", 65.20237646664232),
    ],
    [
        ("block_sink_velocity", -6.1611002326634286e-06),
        ("eta_contrast", 62.41039995289279),
    ],
    [
        ("block_sink_velocity", -6.364700657122585e-06),
        ("eta_contrast", 66.0846370470073),
    ],
    [
        ("block_sink_velocity", -6.254211217420816e-06),
        ("eta_contrast", 63.70998970267442),
    ],
];
const SHEAR_BAND: [[(&str, f64); 2]; VARIANTS as usize] = [
    [
        ("yielded_fraction", 0.9903067129629629),
        ("localization", 2.327661579576992),
    ],
    [
        ("yielded_fraction", 0.9885706018518519),
        ("localization", 2.33437245862217),
    ],
    [
        ("yielded_fraction", 0.9890046296296297),
        ("localization", 2.3345498808356044),
    ],
    [
        ("yielded_fraction", 0.9907407407407407),
        ("localization", 2.397640346823609),
    ],
    [
        ("yielded_fraction", 0.9879918981481481),
        ("localization", 2.3244736737083644),
    ],
    [
        ("yielded_fraction", 0.9932002314814815),
        ("localization", 2.394459596371965),
    ],
    [
        ("yielded_fraction", 0.9891493055555556),
        ("localization", 2.4059778263003047),
    ],
    [
        ("yielded_fraction", 0.9878472222222222),
        ("localization", 2.339578758115849),
    ],
];
/// solcx has no random input: one reference for every variant.
const SOLCX: [(&str, f64); 2] = [
    ("velocity_l2", 0.0024273483108936066),
    ("pressure_l2", 1508.651368079501),
];

/// Physical expectations independent of the recorded values: the dense
/// block sinks through a shear-thinned ambient, compression yields the
/// crust and the weak seed localizes strain.
fn zoo_physics(scenario: &str, s: &RunSummary) -> Vec<String> {
    let mut problems = Vec::new();
    let mut want = |metric: &str, ok: fn(f64) -> bool, what: &str| {
        if !s.metric(metric).is_some_and(ok) {
            problems.push(format!(
                "{metric} = {:?}: expected {what}",
                s.metric(metric)
            ));
        }
    };
    match scenario {
        "falling_block" => {
            want("block_sink_velocity", |w| w < 0.0, "a sinking block");
            want("eta_contrast", |c| c > 2.0, "a shear-thinning contrast > 2");
        }
        "shear_band" => {
            want(
                "yielded_fraction",
                |y| y > 0.2,
                "widespread yielding (> 0.2)",
            );
            want("localization", |l| l > 1.5, "localized strain (> 1.5)");
        }
        "solcx" => {
            want(
                "velocity_l2",
                |e| e > 0.0 && e < 1e-1,
                "a velocity error in (0, 0.1)",
            );
        }
        _ => {}
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rift_ref(variant: usize, step: usize) -> RiftRef {
        let [time, max_topography, velocity_norm] = RIFT[variant][step];
        RiftRef {
            time,
            max_topography,
            velocity_norm,
        }
    }

    #[test]
    fn rift_check_passes_at_the_reference_and_fails_when_perturbed() {
        let tol = Tolerance::nonlinear(5e-3);
        for v in 0..VARIANTS as usize {
            for k in 0..crate::rift::STEPS {
                let r = rift_ref(v, k);
                assert!(check_rift_step(v, k, r, tol).is_empty());
                // A change at the 1e-12 level passes.
                let near = RiftRef {
                    velocity_norm: r.velocity_norm * (1.0 + 1e-12),
                    ..r
                };
                assert!(check_rift_step(v, k, near, tol).is_empty());
                let off = RiftRef {
                    max_topography: r.max_topography * (1.0 + 2.0 * tol.rel),
                    ..r
                };
                assert_eq!(check_rift_step(v, k, off, tol).len(), 1);
                let nan = RiftRef {
                    velocity_norm: f64::NAN,
                    ..r
                };
                assert_eq!(check_rift_step(v, k, nan, tol).len(), 1);
            }
        }
    }

    #[test]
    fn variants_are_told_apart_by_their_references() {
        let tol = Tolerance::nonlinear(5e-3);
        // Variant 1's trajectory checked against variant 0's reference.
        assert!(!check_rift_step(0, 0, rift_ref(1, 0), tol).is_empty());
    }

    fn summary(scenario: &str, variant: usize, scale: f64) -> RunSummary {
        RunSummary {
            kind: "test",
            converged: true,
            iterations: 3,
            metrics: zoo(scenario, variant)
                .iter()
                .map(|(m, v)| (m.to_string(), v * scale))
                .collect(),
            error: None,
        }
    }

    #[test]
    fn zoo_check_passes_at_the_reference_and_fails_when_perturbed() {
        for (scenario, tol) in [
            ("falling_block", Tolerance::nonlinear(1e-5)),
            ("shear_band", Tolerance::nonlinear(1e-4)),
            ("solcx", Tolerance::linear(1e-10)),
        ] {
            for v in 0..VARIANTS as usize {
                let at = summary(scenario, v, 1.0);
                assert!(check_zoo(scenario, v, &at, tol).is_empty(), "{scenario}");
                let near = summary(scenario, v, 1.0 + 1e-12);
                assert!(check_zoo(scenario, v, &near, tol).is_empty(), "{scenario}");
                let off = summary(scenario, v, 1.0 + 2.0 * tol.rel);
                assert_eq!(check_zoo(scenario, v, &off, tol).len(), 2, "{scenario}");
                let unconverged = RunSummary {
                    converged: false,
                    ..at
                };
                assert_eq!(check_zoo(scenario, v, &unconverged, tol).len(), 1);
            }
        }
    }

    #[test]
    fn zoo_physics_rejects_a_rising_block() {
        let mut s = summary("falling_block", 0, 1.0);
        s.metrics[0].1 = -s.metrics[0].1;
        let problems = check_zoo("falling_block", 0, &s, Tolerance::nonlinear(1e-5));
        assert!(
            problems.iter().any(|p| p.contains("sinking")),
            "{problems:?}"
        );
    }
}
