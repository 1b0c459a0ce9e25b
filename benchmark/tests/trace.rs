//! The span tree: self time, nesting discipline, one track per rank.

use std::time::{Duration, Instant};

use chaos_benchmark::json::Json;
use chaos_benchmark::trace::{
    layer_self_ms, self_times_ns, write_chrome_trace, NoTrace, Recorder, Span, Tracer,
};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>, rank: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        rank,
        step: 0,
        run: 0,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    // run [0, 100] > step [10, 90] > gather [20, 40], kernel [40, 70]
    let spans = vec![
        span("run", 0, 100, None, 0),
        span("step", 10, 90, Some(0), 0),
        span("gather", 20, 40, Some(1), 0),
        span("kernel", 40, 70, Some(1), 0),
    ];
    assert_eq!(self_times_ns(&spans), vec![20, 30, 20, 30]);
    // Self times partition the root's duration.
    assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn a_layer_is_the_maximum_over_ranks_of_its_summed_self_time() {
    let rank0 = vec![
        span("step", 0, 3_000_000, None, 0),
        span("gather", 0, 1_000_000, Some(0), 0),
        span("gather", 2_000_000, 3_000_000, Some(0), 0),
    ];
    let rank1 = vec![span("gather", 0, 5_000_000, None, 1)];
    let layers = layer_self_ms(&[rank0, rank1]);
    assert_eq!(layers["gather"], 5.0);
    assert_eq!(layers["step"], 1.0);
}

#[test]
fn the_recorder_nests_spans_under_the_innermost_open_one() {
    let mut tr = Recorder::start(Instant::now(), 3, 7);
    let run = tr.enter("run");
    tr.set_step(4);
    let step = tr.enter("step");
    tr.span("gather", || std::thread::sleep(Duration::from_millis(2)));
    tr.span("kernel", || ());
    tr.exit(step);
    tr.exit(run);
    let spans = tr.finish();

    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["run", "step", "gather", "kernel"]);
    let parents: Vec<Option<u32>> = spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(1), Some(1)]);
    assert!(spans.iter().all(|s| s.rank == 3 && s.run == 7));
    assert_eq!(spans[0].step, 0);
    assert!(spans[1..].iter().all(|s| s.step == 4));
    // A parent starts no later and ends no earlier than its children.
    for s in &spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{s:?} outside {parent:?}"
            );
        }
    }
    assert!(spans[2].duration_ns() >= 2_000_000);
    let own = self_times_ns(&spans);
    assert_eq!(
        own[1],
        spans[1].duration_ns() - spans[2].duration_ns() - spans[3].duration_ns()
    );
}

#[test]
#[should_panic(expected = "closed while a child was still open")]
fn a_parent_may_not_close_before_its_child() {
    let mut tr = Recorder::start(Instant::now(), 0, 0);
    let parent = tr.enter("step");
    let _child = tr.enter("gather");
    tr.exit(parent);
}

#[test]
#[should_panic(expected = "was never closed")]
fn a_run_may_not_end_with_a_span_open() {
    let mut tr = Recorder::start(Instant::now(), 0, 0);
    let _open = tr.enter("run");
    tr.finish();
}

#[test]
fn spans_off_records_nothing() {
    let mut tr = NoTrace::start(Instant::now(), 0, 0);
    let id = tr.enter("run");
    assert_eq!(tr.span("gather", || 41 + 1), 42);
    tr.exit(id);
    assert!(tr.finish().is_empty());
}

#[test]
fn the_trace_file_has_one_track_per_rank() {
    let tracks = vec![
        vec![
            span("run", 0, 9_000, None, 0),
            span("step", 1_000, 2_000, Some(0), 0),
        ],
        vec![span("run", 0, 8_000, None, 1)],
        vec![span("fortrand.parse", 0, 500, None, 2)],
    ];
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("one_track_per_rank.json");
    write_chrome_trace(&path, &tracks, 2).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    let track_names: Vec<(f64, &str)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .map(|e| {
            (
                e.get("tid").and_then(Json::as_f64).unwrap(),
                e.get("args")
                    .unwrap()
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap(),
            )
        })
        .collect();
    assert_eq!(
        track_names,
        [(0.0, "rank 0"), (1.0, "rank 1"), (2.0, "main")]
    );

    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), 4);
    for e in complete {
        let tid = e.get("tid").and_then(Json::as_f64).unwrap();
        let name = e.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(
            tid == 2.0,
            name == "fortrand.parse",
            "{name} on track {tid}"
        );
        assert!(e.get("dur").and_then(Json::as_f64).unwrap() > 0.0);
    }
    // ts and dur are microseconds.
    let step = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("step"))
        .unwrap();
    assert_eq!(step.get("ts").and_then(Json::as_f64), Some(1.0));
    assert_eq!(step.get("dur").and_then(Json::as_f64), Some(1.0));
    assert_eq!(
        doc.get("otherData")
            .unwrap()
            .get("spans_written")
            .and_then(Json::as_f64),
        Some(4.0)
    );
}
