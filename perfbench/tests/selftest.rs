//! Self-tests of the benchmark's own arithmetic: order statistics, the
//! tail-percentile rule, span self time, and the `BENCHMARK.json`
//! format.

use perfbench::json;
use perfbench::schema::Spec;
use perfbench::stats::{median, p90, quartiles, tail};
use perfbench::trace::{self, self_time, summarize, Span};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    // 39 samples: p75 leaves 9 beyond it, too few.
    assert_eq!(tail(&xs(39)), None);
    // 40 samples: p75 is the 30th, with 10 beyond.
    assert_eq!(tail(&xs(40)), Some((75.0, 30.0)));
    // 100 samples: p90 is the 90th; p95 would leave only 5.
    assert_eq!(tail(&xs(100)), Some((90.0, 90.0)));
    assert_eq!(p90(&xs(100)), Some(90.0));
    assert_eq!(p90(&xs(99)), None);
    // 1000 samples: p99 is the 990th, with 10 beyond.
    assert_eq!(tail(&xs(1000)), Some((99.0, 990.0)));
    // 10000 samples: p99.9 is the 9990th.
    assert_eq!(tail(&xs(10_000)), Some((99.9, 9990.0)));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    assert_eq!(self_time(0, 100, &[]), 100);
    assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
    // Overlapping children (parallel threads) count once.
    assert_eq!(self_time(0, 100, &[(10, 40), (20, 60)]), 50);
    // Children reaching outside the parent are clipped.
    assert_eq!(self_time(10, 20, &[(0, 15), (18, 30)]), 3);
    // Fully covered.
    assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
}

#[test]
fn summarize_aggregates_self_time_by_name() {
    let span = |id, parent, name: &str, s, e| Span {
        id,
        parent,
        run: 1,
        name: name.into(),
        tid: 1,
        start_ns: s,
        end_ns: e,
    };
    let spans = vec![
        span(2, Some(1), "child", 10, 30),
        span(3, Some(1), "child", 40, 50),
        span(1, None, "root", 0, 100),
    ];
    let sum = summarize(&spans);
    let get = |n: &str| sum.iter().find(|r| r.0 == n).cloned().unwrap();
    assert_eq!(get("root"), ("root".into(), 1, 100, 70));
    assert_eq!(get("child"), ("child".into(), 2, 30, 30));
}

#[test]
fn recorded_spans_nest_and_share_a_run_id() {
    trace::set_enabled(true);
    let v = trace::run("outer", || trace::span("inner", || 7));
    trace::set_enabled(false);
    trace::span("ignored", || ());
    assert_eq!(v, 7);
    let spans = trace::spans();
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    let inner = spans.iter().find(|s| s.name == "inner").unwrap();
    assert_eq!(inner.parent, Some(outer.id));
    assert_eq!(inner.run, outer.run);
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    assert!(!spans.iter().any(|s| s.name == "ignored"));
    let chrome = trace::chrome_json(&spans).to_json();
    assert!(json::parse(&chrome).unwrap().get("traceEvents").is_some());
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_round_trips() {
    let text = benchmark_json();
    let spec = Spec::parse(&text).expect("BENCHMARK.json is valid");
    let value = json::parse(&text).unwrap();
    assert_eq!(spec.to_value(), value);
    assert_eq!(
        Spec::parse(&spec.to_value().to_json_pretty()).unwrap(),
        spec
    );
    assert_eq!(
        spec.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>(),
        perfbench::workload::NAMES
    );
}

#[test]
fn schema_rejects_out_of_contract_declarations() {
    let good = json::parse(&benchmark_json()).unwrap();
    let with = |key: &str, v: json::Value| {
        let json::Value::Obj(mut kv) = good.clone() else {
            unreachable!()
        };
        kv.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
        Spec::from_value(&json::Value::Obj(kv))
    };
    assert!(with("run_seconds", json::Value::Num(61.0)).is_err());
    assert!(with("paths", json::parse(r#"["../x"]"#).unwrap()).is_err());
    assert!(with("command", json::parse(r#"["/bin/sh"]"#).unwrap()).is_err());
    let loose = json::parse(
        r#"[{"name": "step_s", "unit": "s", "better": "lower", "bound": 0.5},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]"#,
    )
    .unwrap();
    assert!(with("end_to_end", loose).is_err());
    let no_setup =
        json::parse(r#"[{"name": "step_s", "unit": "s", "better": "lower", "bound": 0.1}]"#)
            .unwrap();
    assert!(with("end_to_end", no_setup).is_err());
}

#[test]
fn json_numbers_keep_every_digit() {
    for x in [0.1, 1.2546744679940423, 1e-300, 123456789.0, -2.5] {
        let v = json::Value::Num(x);
        assert_eq!(json::parse(&v.to_json()).unwrap(), v);
    }
    assert_eq!(
        json::parse(r#"{"a": [1, "x\"y", true, null]}"#)
            .unwrap()
            .to_json(),
        r#"{"a": [1, "x\"y", true, null]}"#
    );
}
