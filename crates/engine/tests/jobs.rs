//! Integration tests: every `JobSpec` variant end-to-end through the
//! `Engine`, plus the event stream, cancellation and the error paths.

use bist_core::{BistSession, MixedSchemeConfig};
use bist_engine::{
    BistError, CancelToken, CircuitSource, EmitHdlSpec, Engine, FaultModel, HdlLanguage, JobSpec,
    ProgressEvent,
};

fn serial_config() -> MixedSchemeConfig {
    MixedSchemeConfig {
        threads: 1,
        ..MixedSchemeConfig::default()
    }
}

#[test]
fn solve_at_matches_a_hand_driven_session() {
    let engine = Engine::with_threads(1);
    let result = engine
        .run(JobSpec::solve_at(CircuitSource::iscas85("c17"), 8))
        .expect("solve job succeeds");
    let outcome = result.as_solve_at().expect("solve outcome");

    let c17 = bist_netlist::iscas85::c17();
    let expect = BistSession::new(&c17, serial_config())
        .solve_at(8)
        .expect("reference solve");
    assert_eq!(outcome.circuit, "c17");
    assert_eq!(outcome.solution.prefix_len, expect.prefix_len);
    assert_eq!(outcome.solution.det_len, expect.det_len);
    assert_eq!(outcome.solution.coverage, expect.coverage);
    assert_eq!(
        outcome.solution.generator.deterministic(),
        expect.generator.deterministic()
    );
    assert!(outcome.stats.patterns_simulated >= 8);
}

#[test]
fn sweep_is_bit_identical_to_the_session_and_keeps_request_order() {
    let engine = Engine::with_threads(1);
    let prefixes = [16usize, 0, 8, 0]; // deliberately unordered, one repeat
    let result = engine
        .run(JobSpec::sweep(CircuitSource::iscas85("c17"), prefixes))
        .expect("sweep job succeeds");
    let outcome = result.as_sweep().expect("sweep outcome");

    let c17 = bist_netlist::iscas85::c17();
    let expect = BistSession::new(&c17, serial_config())
        .sweep(&prefixes)
        .expect("reference sweep");
    let got_ps: Vec<usize> = outcome
        .summary
        .solutions()
        .iter()
        .map(|s| s.prefix_len)
        .collect();
    assert_eq!(got_ps, vec![16, 0, 8, 0], "request order preserved");
    for (a, b) in outcome.summary.solutions().iter().zip(expect.solutions()) {
        assert_eq!(a.det_len, b.det_len);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.generator.deterministic(), b.generator.deterministic());
    }
    // the engine's point-by-point drive keeps the incremental contract
    assert_eq!(outcome.stats.patterns_simulated, 16);
    assert_eq!(outcome.stats.patterns_resimulated, 0);
}

#[test]
fn coverage_curve_matches_the_session_curve() {
    let engine = Engine::with_threads(1);
    let checkpoints = [0usize, 8, 32];
    let result = engine
        .run(JobSpec::coverage_curve(
            CircuitSource::iscas85("c17"),
            checkpoints,
        ))
        .expect("curve job succeeds");
    let outcome = result.as_coverage_curve().expect("curve outcome");

    let c17 = bist_netlist::iscas85::c17();
    let mut session = BistSession::new(&c17, serial_config());
    let expect = session.random_coverage_curve(&checkpoints);
    assert_eq!(outcome.curve.points(), expect.points());
    assert_eq!(outcome.fault_universe, session.faults().len());
    assert!(outcome.curve.is_monotone());
}

#[test]
fn bakeoff_puts_every_architecture_on_the_board() {
    let engine = Engine::with_threads(1);
    let result = engine
        .run(JobSpec::bakeoff(CircuitSource::iscas85("c17"), 64))
        .expect("bakeoff job succeeds");
    let outcome = result.as_bakeoff().expect("bakeoff outcome");
    assert!(
        outcome.bakeoff.rows.len() >= 5,
        "all surveyed architectures"
    );
    assert!(outcome.bakeoff.row("lfsr").is_some(), "plain LFSR row");
    for row in &outcome.bakeoff.rows {
        assert!(row.area_mm2 > 0.0, "{} has silicon cost", row.architecture);
        assert!(row.test_length > 0, "{} emits patterns", row.architecture);
    }
    assert!(outcome.bakeoff.achievable_pct > 0.0);
}

#[test]
fn emit_hdl_produces_lint_clean_artifacts_and_a_testbench() {
    let engine = Engine::with_threads(1);
    let spec = EmitHdlSpec {
        circuit: CircuitSource::iscas85("c17"),
        config: serial_config(),
        prefix_len: 4,
        language: HdlLanguage::Both,
        module_name: None,
        testbench: true,
    };
    let result = engine
        .run(JobSpec::EmitHdl(spec))
        .expect("emit job succeeds");
    let outcome = result.as_emit_hdl().expect("hdl outcome");
    assert_eq!(outcome.module, "c17_bist");
    let verilog = outcome.verilog.as_ref().expect("verilog requested");
    let vhdl = outcome.vhdl.as_ref().expect("vhdl requested");
    let testbench = outcome.testbench.as_ref().expect("testbench requested");
    assert!(verilog.contains("module c17_bist"));
    assert!(vhdl.contains("entity c17_bist is"));
    assert!(testbench.contains("module c17_bist_tb"));
    // artefacts were linted by the engine; spot-check anyway
    bist_hdl::lint::check_verilog(verilog).expect("verilog lints");
    bist_hdl::lint::check_vhdl(vhdl).expect("vhdl lints");
    assert_eq!(outcome.solution.prefix_len, 4);
}

#[test]
fn emit_hdl_handles_the_pure_deterministic_extreme() {
    let engine = Engine::with_threads(1);
    let spec = EmitHdlSpec {
        circuit: CircuitSource::iscas85("c17"),
        config: serial_config(),
        prefix_len: 0,
        language: HdlLanguage::Verilog,
        module_name: Some("c17_lfsrom_only".to_owned()),
        testbench: true,
    };
    let result = engine
        .run(JobSpec::EmitHdl(spec))
        .expect("emit job succeeds");
    let outcome = result.as_emit_hdl().expect("hdl outcome");
    assert_eq!(outcome.module, "c17_lfsrom_only");
    assert!(outcome.verilog.is_some());
    assert!(outcome.vhdl.is_none(), "only verilog requested");
    assert!(outcome.testbench.is_some());
}

#[test]
fn area_report_prices_the_deterministic_extreme() {
    let engine = Engine::with_threads(1);
    let result = engine
        .run(JobSpec::area_report(CircuitSource::iscas85("c17")))
        .expect("area job succeeds");
    let outcome = result.as_area_report().expect("area outcome");

    let c17 = bist_netlist::iscas85::c17();
    let expect = BistSession::new(&c17, serial_config())
        .solve_at(0)
        .expect("reference solve");
    assert_eq!(outcome.circuit, "c17");
    assert_eq!(outcome.inputs, 5);
    assert_eq!(outcome.det_len, expect.det_len);
    assert_eq!(outcome.generator_mm2, expect.generator_area_mm2);
    assert_eq!(outcome.chip_mm2, expect.chip_area_mm2);
    assert!((outcome.overhead_pct - expect.overhead_pct()).abs() < 1e-12);
}

#[test]
fn the_event_stream_narrates_a_job_lifecycle_in_order() {
    let engine = Engine::with_threads(1);
    let handle = engine.submit(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]));
    let feed = handle.progress().clone();
    handle.wait().expect("sweep job succeeds");
    let events = feed.drain();
    assert!(matches!(&events[0], ProgressEvent::Queued { label, .. } if label == "sweep c17"));
    assert!(matches!(events[1], ProgressEvent::Started { .. }));
    let checkpoints: Vec<(usize, f64)> = events
        .iter()
        .filter_map(|e| match e {
            ProgressEvent::Checkpoint {
                prefix_len,
                coverage_pct,
                ..
            } => Some((*prefix_len, *coverage_pct)),
            _ => None,
        })
        .collect();
    assert_eq!(checkpoints.len(), 2);
    assert_eq!(checkpoints[0].0, 0);
    assert_eq!(checkpoints[1].0, 8);
    assert!(
        checkpoints[1].1 >= checkpoints[0].1,
        "coverage so far grows"
    );
    assert!(matches!(
        events.last(),
        Some(ProgressEvent::Finished { .. })
    ));
    // one job id threads through every event
    let id = events[0].job();
    assert!(events.iter().all(|e| e.job() == id));
    assert!(feed.is_empty(), "drain consumed everything");
}

#[test]
fn estimate_first_previews_before_the_first_checkpoint() {
    let engine = Engine::with_threads(1);
    let mut spec = JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]);
    if let JobSpec::Sweep(s) = &mut spec {
        s.estimate_first = true;
    }
    let handle = engine.submit(spec);
    let feed = handle.progress().clone();
    let result = handle.wait().expect("sweep job succeeds");
    let events = feed.drain();

    let previews: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, ProgressEvent::Estimate { .. }).then_some(i))
        .collect();
    assert_eq!(previews.len(), 1, "exactly one preview per job: {events:?}");
    let first_checkpoint = events
        .iter()
        .position(|e| matches!(e, ProgressEvent::Checkpoint { .. }))
        .expect("exact checkpoints still stream");
    assert!(
        previews[0] < first_checkpoint,
        "the preview lands before any exact point"
    );
    match &events[previews[0]] {
        ProgressEvent::Estimate {
            prefix_len,
            samples,
            estimate_pct,
            lo_pct,
            hi_pct,
            confidence,
            ..
        } => {
            assert_eq!(*prefix_len, 8, "preview targets the longest prefix");
            assert!(*samples > 0);
            assert!(lo_pct <= estimate_pct && estimate_pct <= hi_pct);
            assert_eq!(*confidence, 95);
        }
        other => panic!("filtered to Estimate, got {other:?}"),
    }

    // the preview never perturbs the exact outcome
    let plain = engine
        .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]))
        .expect("plain sweep");
    let with = result.as_sweep().expect("sweep outcome");
    let without = plain.as_sweep().expect("sweep outcome");
    for (a, b) in with
        .summary
        .solutions()
        .iter()
        .zip(without.summary.solutions())
    {
        assert_eq!(a.det_len, b.det_len);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.generator.deterministic(), b.generator.deterministic());
    }
}

#[test]
fn batches_run_in_spec_order_with_identical_results() {
    // width 1 runs the jobs one by one at full width; width 2 runs them
    // concurrently with serial per-job engines — one level of parallelism
    let solo = Engine::with_threads(1)
        .run(JobSpec::solve_at(CircuitSource::iscas85("c432"), 50))
        .expect("solo solve");
    let solo = &solo.as_solve_at().expect("solve outcome").solution;
    for threads in [1, 2] {
        let engine = Engine::with_threads(threads);
        let specs = vec![
            JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]),
            JobSpec::area_report(CircuitSource::iscas85("c17")),
            JobSpec::solve_at(CircuitSource::iscas85("c432"), 50),
        ];
        let results = engine.run_batch(specs);
        assert_eq!(results.len(), 3);
        let sweep = results[0].as_ref().expect("sweep ok");
        assert!(sweep.as_sweep().is_some());
        assert!(results[1]
            .as_ref()
            .expect("area ok")
            .as_area_report()
            .is_some());
        let solve = results[2].as_ref().expect("solve ok");
        let solve = &solve.as_solve_at().expect("solve outcome").solution;
        assert_eq!(
            solve.det_len, solo.det_len,
            "threads={threads}: batch and solo runs are bit-identical"
        );
        assert_eq!(
            solve.generator.deterministic(),
            solo.generator.deterministic(),
            "threads={threads}"
        );
    }
}

#[test]
fn cancellation_is_cooperative_and_typed() {
    let engine = Engine::with_threads(1);
    let token = CancelToken::new();
    token.cancel();
    let handle = engine.submit_with_cancel(
        JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8, 16]),
        &token,
    );
    let feed = handle.progress().clone();
    let err = handle.wait().expect_err("pre-canceled token stops the job");
    assert_eq!(err, BistError::Canceled);
    let events = feed.drain();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Canceled { .. })),
        "cancellation is narrated: {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Checkpoint { .. })),
        "no checkpoint was reached"
    );
}

#[test]
fn error_paths_come_back_typed_with_failed_events() {
    let engine = Engine::with_threads(1);
    let mut failures = 0usize;
    let mut run = |spec: JobSpec| {
        let handle = engine.submit(spec);
        let feed = handle.progress().clone();
        let err = handle.wait().expect_err("job fails");
        failures += feed
            .drain()
            .into_iter()
            .filter(|e| matches!(e, ProgressEvent::Failed { .. }))
            .count();
        err
    };

    let err = run(JobSpec::solve_at(CircuitSource::iscas85("c9999"), 0));
    assert!(matches!(
        err,
        BistError::UnknownCircuit {
            family: "iscas85",
            ..
        }
    ));

    let err = run(JobSpec::sweep(
        CircuitSource::bench("broken", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)"),
        [0, 8],
    ));
    assert!(matches!(err, BistError::Parse { line: 3, .. }));

    let err = run(JobSpec::sweep(CircuitSource::iscas85("c17"), Vec::new()));
    assert!(matches!(err, BistError::InvalidSpec { job: "sweep", .. }));

    assert_eq!(failures, 3, "every failure is narrated on its own feed");
}

#[test]
fn fault_model_jobs_run_through_the_same_engine_face() {
    // transition and bridging specs drive the same submit/progress/wait
    // machinery as stuck-at ones, and their solutions verify
    let engine = Engine::with_threads(1);
    for model in [FaultModel::Transition, FaultModel::bridging()] {
        let mut spec = JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]);
        if let JobSpec::Sweep(s) = &mut spec {
            s.fault_model = model;
        }
        let handle = engine.submit(spec);
        let feed = handle.progress().clone();
        let result = handle.wait().expect("model sweep succeeds");
        let sweep = result.as_sweep().expect("sweep outcome");
        assert_eq!(sweep.summary.solutions().len(), 2);
        for solution in sweep.summary.solutions() {
            assert!(solution.generator.verify());
        }
        let events = feed.drain();
        assert!(matches!(&events[0], ProgressEvent::Queued { label, .. } if label == "sweep c17"));
        let checkpoints = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::Checkpoint { .. }))
            .count();
        assert_eq!(checkpoints, 2, "one checkpoint per solved point");
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Finished { .. })
        ));
    }
}

#[test]
fn inline_and_bench_sources_run_like_builtin_ones() {
    let engine = Engine::with_threads(1);
    let c17_text = bist_netlist::iscas85::C17_BENCH;
    let from_text = engine
        .run(JobSpec::solve_at(CircuitSource::bench("c17", c17_text), 8))
        .expect("bench-text source");
    let inline = engine
        .run(JobSpec::solve_at(
            CircuitSource::Inline(bist_netlist::iscas85::c17()),
            8,
        ))
        .expect("inline source");
    assert_eq!(
        from_text.as_solve_at().expect("outcome").solution.det_len,
        inline.as_solve_at().expect("outcome").solution.det_len
    );

    // every spelling of one circuit is one job: the same solution under
    // one cache key
    let c432 = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
    let spellings = [
        CircuitSource::iscas85("c432"),
        CircuitSource::bench("c432", bist_netlist::bench::write(&c432)),
        CircuitSource::Inline(c432),
    ];
    let mut digests = Vec::new();
    let mut solutions = Vec::new();
    for source in spellings {
        let spec = JobSpec::solve_at(source, 0);
        let circuit = spec.circuit().realize().expect("realizes");
        digests.push(bist_engine::cache::job_digest(&circuit, &spec));
        let result = engine.run(spec).expect("c432 solves");
        solutions.push(result.as_solve_at().expect("outcome").solution.clone());
    }
    assert_eq!(solutions[0].det_len, 187);
    for (s, digest) in solutions.iter().zip(&digests).skip(1) {
        assert_eq!(digest, &digests[0]);
        assert_eq!(s.det_len, solutions[0].det_len);
        assert_eq!(
            s.generator.deterministic(),
            solutions[0].generator.deterministic()
        );
        assert_eq!(s.coverage, solutions[0].coverage);
        assert_eq!(s.prefix_coverage, solutions[0].prefix_coverage);
        assert_eq!(
            s.generator_area_mm2.to_bits(),
            solutions[0].generator_area_mm2.to_bits()
        );
    }
}

#[test]
fn every_job_kind_rejects_an_out_of_range_lfsr_polynomial() {
    let c17 = || CircuitSource::iscas85("c17");
    let specs = [
        JobSpec::solve_at(c17(), 4),
        JobSpec::sweep(c17(), [0, 8]),
        JobSpec::coverage_curve(c17(), [8]),
        JobSpec::bakeoff(c17(), 8),
        JobSpec::emit_hdl(c17(), 4),
        JobSpec::area_report(c17()),
        JobSpec::lint(c17()),
        JobSpec::estimate(c17(), 8),
    ];
    let engine = Engine::with_threads(1);
    // degree 0: the constant 1, and the zero polynomial
    for mask in [1u64, 0] {
        for mut spec in specs.clone() {
            let kind = spec.kind();
            set_poly(&mut spec, bist_lfsr::Polynomial::from_mask(mask));
            let err = engine
                .run(spec)
                .expect_err("a degree-0 polynomial is refused");
            match err {
                BistError::InvalidSpec { job, message } => {
                    assert_eq!(job, kind);
                    assert!(message.contains("degree 0"), "{kind}: {message}");
                }
                other => panic!("{kind}: expected InvalidSpec, got {other:?}"),
            }
        }
    }
}

/// Sets the LFSR polynomial of any job kind's configuration.
fn set_poly(spec: &mut JobSpec, poly: bist_lfsr::Polynomial) {
    let config = match spec {
        JobSpec::SolveAt(s) => &mut s.config,
        JobSpec::Sweep(s) => &mut s.config,
        JobSpec::CoverageCurve(s) => &mut s.config,
        JobSpec::Bakeoff(s) => &mut s.config,
        JobSpec::EmitHdl(s) => &mut s.config,
        JobSpec::AreaReport(s) => &mut s.config,
        JobSpec::Lint(s) => &mut s.config,
        JobSpec::CoverageEstimate(s) => &mut s.config,
    };
    config.poly = poly;
}
