//! The FNC-2 benchmark: the four user paths timed end to end, with a
//! traced run attributing each to its layers.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one client thread, a closed loop. End-to-end times are
//! scaled to a reference host speed by a yardstick timed between the ops
//! (see `yardstick`). The last line of standard output is the result:
//! `correct`, `attempted`, `failed` and the metrics (end-to-end ones with
//! `--trace 0`, per-layer ones with `--trace 1`). The line before it holds
//! the provenance and the details (sample counts, family shares, the times
//! as measured); both, and with `--trace 1` the spans, are also written to
//! `perfbench/out/`. `--self-test` checks that a deliberately wrong
//! reference fails every op of every workload.

mod alloc;
mod compile;
mod decorate;
mod edit;
mod harness;
mod metrics;
mod sources;
mod startup;
mod trace;
mod yardstick;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use fnc2::obs::Json;

use harness::{drive, Config, Sample, Workload, MIN_OPS};
use metrics::{latencies, median, metric, END_TO_END};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run, one per segment of the timed loop; `setup_s` is their
/// median.
const SETUPS: usize = 9;

/// Where results and spans are written, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 4] = ["compile", "startup", "decorate", "edit"];

struct Args {
    workload: String,
    cfg: Config,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --self-test",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        corrupt: false,
    };
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(it.next()?.clone()),
            "--seed" => cfg.seed = it.next()?.parse().ok()?,
            "--seconds" => cfg.seconds = it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Args {
        workload,
        cfg,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-test"] {
        return self_test();
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    if let Err(e) = check_manifest() {
        eprintln!("perfbench: BENCHMARK.json disagrees with the benchmark: {e}");
        return ExitCode::from(2);
    }
    let run = match args.workload.as_str() {
        "compile" => run::<compile::Compile>(&args),
        "startup" => run::<startup::Startup>(&args),
        "decorate" => run::<decorate::Decorate>(&args),
        _ => run::<edit::Edit>(&args),
    };
    let correct = run.attempted > 0 && run.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(run.attempted as i64)),
        ("failed", Json::Int(run.failed as i64)),
        ("metrics", Json::Obj(run.metrics)),
    ]);
    write_out(&args, &run.detail, &result, run.spans);
    println!("{}", run.detail);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What one run reports.
struct Run {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, Json)>,
    detail: Json,
    spans: Option<Json>,
}

impl Run {
    fn new(samples: &[Sample], metrics: Vec<(String, Json)>, detail: Vec<(&str, Json)>) -> Run {
        Run {
            attempted: samples.len(),
            failed: samples.iter().filter(|s| !s.ok).count(),
            metrics,
            detail: Json::obj(detail),
            spans: None,
        }
    }
}

fn run<W: Workload>(args: &Args) -> Run {
    let mut detail = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.cfg.seed as i64)),
        ("seconds", Json::Float(args.cfg.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("provenance", provenance()),
    ];
    if args.trace {
        traced::<W>(&args.cfg, detail)
    } else {
        detail.push(("segments", Json::Int(SETUPS as i64)));
        untraced::<W>(&args.cfg, detail)
    }
}

/// The timed loop, in `SETUPS` segments that each start with a fresh
/// set-up, so that set-up times, like op times, are sampled across the
/// whole run. The op index runs on across segments, and every segment
/// ends on a whole pass, so the run does each op of a pass equally often.
fn untraced<W: Workload>(cfg: &Config, mut detail: Vec<(&str, Json)>) -> Run {
    let start = Instant::now();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut samples = Vec::new();
    for k in 0..SETUPS {
        let before = yardstick::measure();
        let (mut w, s) = W::setup(cfg);
        setups.push(s * yardstick::factor(before, yardstick::measure()));
        raw_setups.push(s);
        // The segments share out the time and the ops still due.
        let left = (SETUPS - k) as f64;
        let min_ops = (MIN_OPS.saturating_sub(samples.len()) as f64 / left).ceil() as usize;
        let segment = (cfg.seconds - start.elapsed().as_secs_f64()).max(0.0) / left;
        samples.extend(drive(&mut w, samples.len(), segment, min_ops, None));
    }
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("setup_s", median(&setups));
    for (name, v, _) in latencies(&samples) {
        values.insert(name, v);
    }
    values.insert("ops_per_s", rate(&samples));
    let failed = samples.iter().filter(|s| !s.ok).count();
    values.insert("success_ratio", 1.0 - failed as f64 / samples.len() as f64);
    values.insert("peak_rss_mb", peak_rss_mb());
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), metric(values[name], unit)))
        .collect();
    detail.push((
        "raw_setup_s_runs",
        Json::Arr(raw_setups.iter().map(|&s| Json::Float(s)).collect()),
    ));
    detail.push(("raw_ops_per_s", Json::Float(raw_rate(&samples))));
    detail.extend(sample_detail(&samples));
    Run::new(&samples, metrics, detail)
}

/// Half the time untraced, then half traced from a fresh set-up, so that
/// the counted first pass starts from the same state in every run.
fn traced<W: Workload>(cfg: &Config, mut detail: Vec<(&str, Json)>) -> Run {
    let (mut w, _) = W::setup(cfg);
    let untraced = drive(&mut w, 0, cfg.seconds / 2.0, 1, None);
    drop(w);
    let (mut w, _) = W::setup(cfg);
    let mut tr = Tracer::new();
    let pass = w.pass_len();
    let traced = drive(&mut w, 0, cfg.seconds / 2.0, pass, Some(&mut tr));
    alloc::set_counting(false);
    let p50 = |s: &[Sample]| latencies(s)[0].1;
    let values = metrics::layer_values(&tr, p50(&traced) - p50(&untraced));
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = values[&name];
            (name, metric(v, unit))
        })
        .collect();
    detail.push(("untraced_p50_ms", Json::Float(p50(&untraced))));
    detail.push(("traced_p50_ms", Json::Float(p50(&traced))));
    detail.push(("counted_ops", Json::Int(pass as i64)));
    detail.extend(sample_detail(&traced));
    let all: Vec<Sample> = untraced.into_iter().chain(traced).collect();
    let mut run = Run::new(&all, metrics, detail);
    run.spans = Some(tr.spans_json());
    run
}

/// Ops per second of op time.
fn rate(samples: &[Sample]) -> f64 {
    samples.len() as f64 / (samples.iter().map(|s| s.ms).sum::<f64>() / 1e3)
}

/// Ops per second of op time as measured.
fn raw_rate(samples: &[Sample]) -> f64 {
    samples.len() as f64 / (samples.iter().map(|s| s.raw_ms).sum::<f64>() / 1e3)
}

/// Sample counts, failures, each percentile (scaled and as measured) with
/// the samples beyond it, and each input family's share of the ops and of
/// the op time.
fn sample_detail(samples: &[Sample]) -> Vec<(&'static str, Json)> {
    let n = samples.len();
    let failed = samples.iter().filter(|s| !s.ok).count();
    let total_ms: f64 = samples.iter().map(|s| s.ms).sum();
    let mut families: BTreeMap<&str, Vec<Sample>> = BTreeMap::new();
    for s in samples {
        families.entry(s.family).or_default().push(*s);
    }
    let as_measured: Vec<Sample> = samples
        .iter()
        .map(|s| Sample { ms: s.raw_ms, ..*s })
        .collect();
    let raw = latencies(&as_measured);
    vec![
        ("samples", Json::Int(n as i64)),
        ("failed_ratio", Json::Float(failed as f64 / n.max(1) as f64)),
        (
            "percentiles",
            Json::obj(
                latencies(samples)
                    .into_iter()
                    .zip(raw)
                    .map(|((name, v, beyond), r)| {
                        (
                            name,
                            Json::obj([
                                ("ms", Json::Float(v)),
                                ("raw_ms", Json::Float(r.1)),
                                ("samples", Json::Int(n as i64)),
                                ("samples_beyond", Json::Int(beyond as i64)),
                            ]),
                        )
                    }),
            ),
        ),
        (
            "families",
            Json::obj(families.into_iter().map(|(f, s)| {
                let ms: f64 = s.iter().map(|s| s.ms).sum();
                (
                    f,
                    Json::obj([
                        ("ops", Json::Int(s.len() as i64)),
                        (
                            "failed",
                            Json::Int(s.iter().filter(|s| !s.ok).count() as i64),
                        ),
                        ("op_share", Json::Float(s.len() as f64 / n as f64)),
                        ("time_share", Json::Float(ms / total_ms)),
                        ("p50_ms", Json::Float(latencies(&s)[0].1)),
                    ]),
                )
            })),
        ),
    ]
}

/// Seed-independent facts about the build and the host.
fn provenance() -> Json {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable: not a git checkout".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", Json::str(git)),
    ])
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Checks that `BENCHMARK.json`, when present in the working directory,
/// lists exactly the metrics this benchmark prints, with the same units.
fn check_manifest() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let listed = |key: &str| -> Result<Vec<(String, String)>, String> {
        let arr = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("no `{key}`"))?;
        Ok(arr
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect())
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    let layers: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.into()))
        .collect();
    if listed("end_to_end")? != e2e {
        return Err("end_to_end metrics differ".into());
    }
    if listed("per_layer")? != layers {
        return Err("per_layer metrics differ".into());
    }
    Ok(())
}

/// Writes the result, its details and any spans to `OUT_DIR`.
fn write_out(args: &Args, detail: &Json, result: &Json, spans: Option<Json>) {
    let name = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.cfg.seed,
        u8::from(args.trace)
    );
    let mut doc = vec![("detail", detail.clone()), ("result", result.clone())];
    doc.extend(spans.map(|s| ("spans", s)));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&name, Json::obj(doc).to_string()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {name}: {e}");
    }
}

/// Every workload, untraced and traced, against a deliberately wrong
/// reference: every op must fail.
fn self_test() -> ExitCode {
    let cfg = Config {
        seed: 1,
        seconds: 0.3,
        corrupt: true,
    };
    let mut ok = true;
    for name in WORKLOADS {
        let (attempted, failed) = match name {
            "compile" => corrupt_run::<compile::Compile>(&cfg),
            "startup" => corrupt_run::<startup::Startup>(&cfg),
            "decorate" => corrupt_run::<decorate::Decorate>(&cfg),
            _ => corrupt_run::<edit::Edit>(&cfg),
        };
        let pass = attempted > 0 && failed == attempted;
        ok &= pass;
        println!(
            "self-test {name}: {failed}/{attempted} ops failed (failed_ratio {}) {}",
            failed as f64 / attempted.max(1) as f64,
            if pass { "ok" } else { "FAIL" }
        );
    }
    alloc::set_counting(false);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn corrupt_run<W: Workload>(cfg: &Config) -> (usize, usize) {
    let (mut w, _) = W::setup(cfg);
    let mut samples = drive(&mut w, 0, cfg.seconds, 1, None);
    let (mut w, _) = W::setup(cfg);
    samples.extend(drive(&mut w, 0, cfg.seconds, 1, Some(&mut Tracer::new())));
    (samples.len(), samples.iter().filter(|s| !s.ok).count())
}
