//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all four), checks its outputs, prints every
//! metric with its unit and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`,
//! with `--trace 1` the per-layer ones. Results files go to `out/`
//! beside this crate. Exits 1 when a correctness check fails.

use numerics::Real;
use perfbench::json::{self, Value};
use perfbench::layers::{self, Metrics};
use perfbench::schema::Spec;
use perfbench::stats::{median, p90, quartiles, tail};
use perfbench::workload::{self, Def, Timed, NAMES};
use perfbench::{host, trace};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && Def::get(&a.workload).is_none() {
        return Err(format!(
            "--workload must be one of {NAMES:?} or all, not {:?}",
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// This crate's directory and the repository root above it.
fn dirs() -> (PathBuf, PathBuf) {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = here.parent().map(Path::to_path_buf).unwrap_or_default();
    (here, root)
}

/// Replays per entry point on a warmed model.
const REPLAY_REPS: usize = 3;

/// One invocation's outcome.
struct Outcome {
    metrics: Metrics,
    /// Values that go only to the results file.
    extra: Vec<(String, Value)>,
    timed: Timed,
    error: Option<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.error.is_none() && self.timed.failed == 0 && self.timed.checks.iter().all(|c| c.ok)
    }
}

/// Workload set-up, timed loop and gates, then (traced) the per-layer
/// probes.
fn measure<R: Real>(d: &Def, a: &Args, expected: &Value, o: &mut Outcome) -> Result<(), String> {
    let exp = workload::expected_sim_step_s(expected, d.name);
    let t = &mut o.timed;
    let replayed = if d.multi() {
        workload::run_multi_workload::<R>(d, a.seed, a.seconds, a.trace, exp, t)?;
        if !a.trace {
            None
        } else if d.mode == vgpu::ExecMode::Phantom {
            let mut rig = layers::Rig::<R>::phantom(&d.cfg)?;
            Some(trace::run("probe.kernels", || {
                layers::replay_all(
                    &mut rig.dev,
                    &rig.geom,
                    &rig.ds,
                    &rig.cfg,
                    &rig.grid,
                    REPLAY_REPS,
                )
            })?)
        } else {
            // One rank's subdomain as a single device.
            let (_, _, s) = perfbench::input::state_for(a.seed, &d.cfg);
            let mut g = asuca_gpu::SingleGpu::<R>::new(
                d.cfg.clone(),
                vgpu::DeviceSpec::tesla_s1070(),
                d.mode,
            );
            g.load_state(&s).map_err(|e| e.to_string())?;
            g.step().map_err(|e| e.to_string())?;
            Some(trace::run("probe.kernels", || {
                layers::replay_all(&mut g.dev, &g.geom, &g.ds, &g.cfg, &g.grid, REPLAY_REPS)
            })?)
        }
    } else {
        let mut g = workload::run_single::<R>(d, a.seed, a.seconds, a.trace, exp, t)?;
        a.trace
            .then(|| {
                trace::run("probe.kernels", || {
                    layers::replay_all(&mut g.dev, &g.geom, &g.ds, &g.cfg, &g.grid, REPLAY_REPS)
                })
            })
            .transpose()?
    };

    let step_s = median(&t.step).ok_or("no timed steps")?;
    let m = &mut o.metrics;
    m.push(("step_s".into(), step_s, "s"));
    m.push(("setup_s".into(), median(&t.setup).ok_or("no set-ups")?, "s"));
    m.push(("peak_rss_mb".into(), t.peak_rss_mb, "MB"));
    let samples = |xs: &[f64]| Value::Arr(xs.iter().map(|x| Value::Num(*x)).collect());
    for (name, xs) in [
        ("step_s_wall", &t.step_wall),
        ("setup_s_wall", &t.setup_wall),
    ] {
        o.extra
            .push((name.into(), Value::Num(median(xs).unwrap_or(f64::NAN))));
    }
    o.extra.push(("step_s_samples".into(), samples(&t.step)));
    o.extra
        .push(("step_s_wall_samples".into(), samples(&t.step_wall)));
    o.extra.push(("setup_s_samples".into(), samples(&t.setup)));
    if let Some((q1, q3)) = quartiles(&t.step) {
        o.extra
            .push(("step_s_quartiles".into(), samples(&[q1, q3])));
    }
    o.extra
        .push(("step_s_n".into(), Value::Num(t.step.len() as f64)));
    if let Some(p) = p90(&t.step) {
        o.extra.push(("step_s_p90".into(), Value::Num(p)));
    }
    if let Some((p, v)) = tail(&t.step) {
        o.extra
            .push(("step_s_tail_percentile".into(), Value::Num(p)));
        o.extra.push(("step_s_tail".into(), Value::Num(v)));
    }
    o.extra.push((
        "fail_ratio".into(),
        Value::Num(t.failed as f64 / t.attempted.max(1) as f64),
    ));
    o.extra
        .push(("sim_step_s".into(), Value::Num(t.sim_step_s)));
    o.extra
        .push(("steal_share".into(), Value::Num(t.steal_share)));

    let Some(replayed) = replayed else {
        return Ok(());
    };
    let calls = trace::run("probe.calls_per_step", || {
        layers::calls_per_step(&d.cfg, a.seed)
    })?;
    layers::kernel_metrics(&replayed, &calls, step_s, m);
    m.push((
        "pool.dispatch_us".into(),
        trace::run("probe.pool", || {
            layers::pool_dispatch_us(workload::device_threads())
        }),
        "us",
    ));
    let mut rig = layers::Rig::<R>::phantom(&d.cfg)?;
    m.push((
        "vgpu.phantom_launch_us".into(),
        trace::run("probe.phantom", || {
            layers::phantom_launch_us(&mut rig, &calls, 5)
        })?,
        "us",
    ));
    drop(rig);
    m.push((
        "vgpu.launches_per_step".into(),
        t.launches_per_step,
        "count",
    ));
    m.push(("vgpu.copies_per_step".into(), t.copies_per_step, "count"));
    m.push(("vgpu.sim_step_s".into(), t.sim_step_s, "sim_s"));

    let halo_def = Def::get("halo_2rank").expect("halo_2rank is defined");
    let (ex_ms, ex_bytes) = trace::run("probe.halo", || layers::halo_exchange(&halo_def, 10))?;
    m.push(("halo.exchange_ms".into(), ex_ms, "ms"));
    m.push(("halo.bytes_per_exchange".into(), ex_bytes, "B"));
    let (ratio, mpi, pcie) = trace::run("probe.overlap", || layers::overlap_probe(a.seed))?;
    m.push(("halo.sim_mpi_s_per_step".into(), mpi, "sim_s"));
    m.push(("halo.sim_pcie_s_per_step".into(), pcie, "sim_s"));
    m.push(("multi.overlap_host_ratio".into(), ratio, "ratio"));
    let dc = asuca_gpu::view::Dims::center(halo_def.cfg.nx, halo_def.cfg.ny, halo_def.cfg.nz, 2);
    for (name, elems) in [
        (
            "comm.pingpong_y_slab_us",
            asuca_gpu::kernels::boundary::y_slab_len(dc),
        ),
        (
            "comm.pingpong_x_strip_us",
            asuca_gpu::kernels::boundary::x_strip_len(dc),
        ),
    ] {
        let us = trace::run("probe.comm", || layers::comm_pingpong_us(elems, 200))?;
        m.push((name.into(), us, "us"));
    }

    let [grid_s, base_s, device_s, upload_s] =
        trace::run("probe.setup", || layers::setup_layers::<R>(d, a.seed))?;
    m.push(("setup.grid_s".into(), grid_s, "s"));
    m.push(("setup.base_s".into(), base_s, "s"));
    m.push(("setup.device_s".into(), device_s, "s"));
    m.push(("setup.upload_s".into(), upload_s, "s"));

    let (ref_s, port_s) = trace::run("probe.reference", || layers::reference_vs_port(a.seed, 3))?;
    m.push(("dycore.ref_step_s".into(), ref_s, "s"));
    m.push(("port_speedup".into(), ref_s / port_s, "x"));

    let (gbps, array_bytes) =
        trace::run("probe.stream", || host::stream_triad_gbps(host::nproc(), 5));
    m.push(("host.stream_gbps".into(), gbps, "GB/s"));
    o.extra
        .push(("stream_array_bytes".into(), Value::Num(array_bytes as f64)));
    let traced_s = median(&t.step_traced).ok_or("no traced steps")?;
    m.push(("trace.overhead".into(), traced_s / step_s, "ratio"));
    Ok(())
}

fn run_one(d: &Def, a: &Args, expected: &Value) -> Outcome {
    trace::set_enabled(a.trace);
    let mut o = Outcome {
        metrics: Vec::new(),
        extra: Vec::new(),
        timed: Timed::default(),
        error: None,
    };
    let r = if d.f32 {
        measure::<f32>(d, a, expected, &mut o)
    } else {
        measure::<f64>(d, a, expected, &mut o)
    };
    trace::set_enabled(false);
    o.error = r.err();
    o
}

fn metric_obj(name: &str, value: f64, unit: &str) -> (String, Value) {
    (
        name.to_string(),
        Value::Obj(vec![
            ("value".into(), Value::Num(value)),
            ("unit".into(), Value::Str(unit.to_string())),
        ]),
    )
}

/// The declared metrics of this mode, as measured; a declared metric
/// the run did not produce (or produced with another unit) is an error.
fn declared(spec: &Spec, trace: bool, o: &Outcome) -> Result<Vec<(String, Value)>, String> {
    let list = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    list.iter()
        .map(|dm| {
            let (_, v, unit) = o
                .metrics
                .iter()
                .find(|(n, _, _)| *n == dm.name)
                .ok_or(format!("metric {} was not measured", dm.name))?;
            if *unit != dm.unit {
                return Err(format!(
                    "metric {}: unit {unit}, declared {}",
                    dm.name, dm.unit
                ));
            }
            Ok(metric_obj(&dm.name, *v, unit))
        })
        .collect()
}

fn write_results(
    here: &Path,
    root: &Path,
    d: &Def,
    a: &Args,
    o: &Outcome,
) -> Result<PathBuf, String> {
    let out = here.join("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}-trace{}", d.name, a.seed, a.trace as u8);
    let working_sets = NAMES
        .iter()
        .map(|n| {
            let w = Def::get(n).expect("named workload");
            (n.to_string(), Value::Num(w.working_set_bytes() as f64))
        })
        .collect();
    let checks = o
        .timed
        .checks
        .iter()
        .map(|c| {
            Value::Obj(vec![
                ("name".into(), Value::Str(c.name.clone())),
                ("ok".into(), Value::Bool(c.ok)),
                ("detail".into(), Value::Str(c.detail.clone())),
            ])
        })
        .collect();
    let mut doc = vec![
        ("workload".into(), Value::Str(d.name.into())),
        ("seed".into(), Value::Num(a.seed as f64)),
        ("seconds".into(), Value::Num(a.seconds)),
        ("trace".into(), Value::Bool(a.trace)),
        ("host".into(), host::metadata(root)),
        ("working_set_bytes".into(), Value::Obj(working_sets)),
        ("correct".into(), Value::Bool(o.correct())),
        ("attempted".into(), Value::Num(o.timed.attempted as f64)),
        ("failed".into(), Value::Num(o.timed.failed as f64)),
        (
            "error".into(),
            o.error.clone().map_or(Value::Null, Value::Str),
        ),
        ("checks".into(), Value::Arr(checks)),
        (
            "metrics".into(),
            Value::Obj(
                o.metrics
                    .iter()
                    .map(|(n, v, u)| metric_obj(n, *v, u))
                    .collect(),
            ),
        ),
    ];
    doc.extend(o.extra.iter().cloned());
    if a.trace {
        let spans = trace::spans();
        let summary = trace::summarize(&spans)
            .into_iter()
            .map(|(name, count, total, own)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(name)),
                    ("count".into(), Value::Num(count as f64)),
                    ("total_ms".into(), Value::Num(total as f64 / 1e6)),
                    ("self_ms".into(), Value::Num(own as f64 / 1e6)),
                ])
            })
            .collect();
        doc.push(("spans".into(), Value::Arr(summary)));
        let tpath = out.join(format!("{stem}.trace.json"));
        std::fs::write(&tpath, trace::chrome_json(&spans).to_json()).map_err(|e| e.to_string())?;
        doc.push((
            "chrome_trace".into(),
            Value::Str(
                tpath
                    .file_name()
                    .unwrap_or_default()
                    .to_string_lossy()
                    .into(),
            ),
        ));
    }
    let path = out.join(format!("{stem}.json"));
    std::fs::write(&path, Value::Obj(doc).to_json_pretty()).map_err(|e| e.to_string())?;
    Ok(path)
}

fn report(d: &Def, o: &Outcome) {
    println!("== {} ==", d.name);
    for (n, v, u) in &o.metrics {
        println!("{n} = {v} {u}");
    }
    for (n, v) in &o.extra {
        if let Value::Num(x) = v {
            println!("{n} = {x}");
        }
    }
    for c in &o.timed.checks {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    if let Some(e) = &o.error {
        println!("error: {e}");
    }
}

fn main() {
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn result_line(ok: bool, attempted: u64, failed: u64, metrics: Vec<(String, Value)>) {
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(ok)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
}

/// Every workload in a child process of its own, so that peak memory
/// and worker pools of one do not carry into the next. Metrics are
/// prefixed with the workload name.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut ok, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().and_then(|l| json::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        let Some(last) = last else {
            println!("error: {name} printed no result");
            ok = false;
            continue;
        };
        let count = |k: &str| last.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        ok &= out.status.success() && last.get("correct") == Some(&Value::Bool(true));
        attempted += count("attempted");
        failed += count("failed");
        if let Some(kv) = last.get("metrics").and_then(Value::as_obj) {
            metrics.extend(kv.iter().map(|(k, v)| (format!("{name}.{k}"), v.clone())));
        }
    }
    result_line(ok, attempted.max(1), failed, metrics);
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let a = parse_args()?;
    let (here, root) = dirs();
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let spec = Spec::parse(&read(root.join("BENCHMARK.json"))?)?;
    let expected = json::parse(&read(here.join("expected.json"))?)?;
    if a.workload == "all" {
        return run_all(&a);
    }
    let d = Def::get(&a.workload).expect("validated workload");
    let o = run_one(&d, &a, &expected);
    report(&d, &o);
    let path = write_results(&here, &root, &d, &a, &o)?;
    println!("results: {}", path.display());
    let mut ok = o.correct();
    let metrics = declared(&spec, a.trace, &o).unwrap_or_else(|e| {
        println!("error: {e}");
        ok = false;
        Vec::new()
    });
    let (attempted, failed) = match o.timed.attempted {
        // The run failed before its first step: count the run itself.
        0 => (1, 1),
        n => (n, o.timed.failed),
    };
    result_line(ok, attempted, failed, metrics);
    Ok(ok)
}
