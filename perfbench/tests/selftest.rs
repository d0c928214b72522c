//! Self-tests of the benchmark, on `HB(1, 3)`-sized inputs: every
//! verification rejects a corrupted result, every workload runs clean,
//! and both kinds of run emit exactly the metrics `BENCHMARK.json`
//! declares.

use hb_perfbench::runner::{measure, trace, INPUT_SETS};
use hb_perfbench::workload::{Kind, Outcome, Size, Workload};

fn prepared(kind: Kind) -> (Workload, Outcome) {
    let mut w = Workload::setup(kind, Size::Tiny, 7).expect("tiny set-up");
    w.compute_reference().expect("tiny reference");
    let out = w.op(None);
    w.verify(&out).expect("an honest result verifies");
    (w, out)
}

fn assert_rejects(w: &Workload, out: &Outcome, what: &str, corrupt: impl FnOnce(&mut Outcome)) {
    let mut bad = out.clone();
    corrupt(&mut bad);
    assert!(
        w.verify(&bad).is_err(),
        "{}: corrupted {what} was accepted",
        w.kind.name()
    );
}

#[test]
fn every_verification_rejects_a_corrupted_result() {
    for kind in [Kind::Uniform, Kind::Hotspot, Kind::Churn] {
        let (w, out) = prepared(kind);
        assert_rejects(&w, &out, "conservation", |o| o.stats.delivered += 1);
        assert_rejects(&w, &out, "stats", |o| o.stats.peak_queue += 1);
        assert_rejects(&w, &out, "cycles", |o| o.stats.cycles += 1);
    }
    let (w, out) = prepared(Kind::Churn);
    assert!(w.reference.as_ref().expect("reference").unroutable > 0);
    assert_rejects(&w, &out, "unroutable", |o| o.unroutable += 1);

    let (w, out) = prepared(Kind::Structure);
    let s = |o: &mut Outcome| o.structure.as_mut().expect("structure result").clone();
    assert_rejects(&w, &out, "kappa", |o| {
        let mut x = s(o);
        x.kappa -= 1;
        o.structure = Some(x);
    });
    assert_rejects(&w, &out, "diameter", |o| {
        let mut x = s(o);
        x.diameter += 1;
        o.structure = Some(x);
    });
    assert_rejects(&w, &out, "fault trials", |o| {
        let mut x = s(o);
        x.connected -= 1;
        o.structure = Some(x);
    });
}

#[test]
fn same_seed_same_digest_other_seed_other_inputs() {
    for kind in Kind::ALL {
        let (_, a) = prepared(kind);
        let (_, b) = prepared(kind);
        assert_eq!(a.digest(), b.digest(), "{}", kind.name());
    }
    let a = Workload::setup(Kind::Churn, Size::Tiny, 1).expect("set-up");
    let b = Workload::setup(Kind::Churn, Size::Tiny, 2).expect("set-up");
    assert_ne!(a.injections, b.injections);
    assert_ne!(a.timeline, b.timeline);
}

/// Metric names of one section of `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn tiny_untraced_runs_are_clean_and_emit_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for kind in Kind::ALL {
        let r = measure(kind, Size::Tiny, 3, 0.05).expect("tiny run");
        assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.log);
        assert!(r.attempted > 20);
        let digests = r.log.iter().filter(|l| l.starts_with("seed ")).count();
        assert_eq!(digests as u64, INPUT_SETS, "one digest per input set");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", kind.name());
        assert!(r.metrics.iter().all(|m| m.1 > 0.0), "{:?}", r.metrics);
    }
}

#[test]
fn tiny_traced_runs_are_clean_and_emit_every_per_layer_metric() {
    let want = declared("per_layer");
    for kind in Kind::ALL {
        let (r, rec) = trace(kind, Size::Tiny, 3, 0.01).expect("tiny traced run");
        assert_eq!(r.failed, 0, "{}: {:?}", kind.name(), r.log);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", kind.name());
        for layer in [
            "routes.build",
            "routes.repair",
            "sim.adaptive",
            "render.chrome",
        ] {
            assert!(rec.spans().iter().any(|s| s.name == layer), "{layer}");
        }
    }
}
