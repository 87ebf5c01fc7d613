//! The closed loop shared by the four workloads: one client thread, the
//! next op starts when the previous one has finished.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fnc2::ag::{AttrValues, Grammar, Tree, Value};
use fnc2::visit::{DynamicEvaluator, RootInputs};

use crate::trace::Tracer;
use crate::yardstick;

/// What a run is asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed of every generated input and edit script.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Replace every reference with a deliberately wrong one (the
    /// self-test of the output checks).
    pub corrupt: bool,
}

/// One op's outcome.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The input family the op belongs to.
    pub family: &'static str,
    /// Duration of the op's public calls in ms, scaled to the reference
    /// host speed once the op's block is over (see `yardstick`).
    pub ms: f64,
    /// The same, as measured.
    pub raw_ms: f64,
    /// False if the op returned an error, panicked, or produced output
    /// that differs from the reference.
    pub ok: bool,
}

/// A workload: its set-up and its op.
pub trait Workload: Sized {
    /// Builds the program state from the seed. Returns the state and the
    /// seconds of program work in it (compiling, emitting artifacts,
    /// parsing inputs, initial decoration), which excludes the
    /// benchmark's own reference computation.
    fn setup(cfg: &Config) -> (Self, f64);

    /// Ops in one deterministic pass over the inputs. The traced run
    /// reports work counts over the first pass, so they repeat exactly.
    fn pass_len(&self) -> usize;

    /// Runs op `i` and pushes its sample. With a tracer, the op replays
    /// its path one public call at a time inside spans.
    fn op(&mut self, i: usize, tr: Option<&mut Tracer>, out: &mut Vec<Sample>);

    /// Checks made once the loop has ended; may mark earlier samples
    /// failed.
    fn finish(&mut self, _out: &mut Vec<Sample>) {}
}

/// Fewest ops a run reports its latencies over: the 99th percentile needs
/// ten samples beyond it.
pub const MIN_OPS: usize = 1000;

/// One `drive` never loops longer than this, whatever `min_ops` asks.
const HARD_CAP: Duration = Duration::from_secs(15);

/// How often `drive` times the yardstick; the ops in between are scaled
/// by its times at either end.
const YARDSTICK_EVERY: Duration = Duration::from_millis(250);

/// Runs ops `first, first + 1, …` for `seconds` and at least `min_ops`
/// ops, then on to the end of the pass under way, so that the ops form
/// whole passes. With a tracer, ops below the workload's pass length are
/// counted. The yardstick runs between ops, outside every span.
pub fn drive<W: Workload>(
    w: &mut W,
    first: usize,
    seconds: f64,
    min_ops: usize,
    mut tr: Option<&mut Tracer>,
) -> Vec<Sample> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let pass = w.pass_len();
    let mut out = Vec::new();
    let mut i = first;
    let mut before = yardstick::measure();
    let (mut block, mut since) = (0, Instant::now());
    while (out.len() < min_ops || start.elapsed() < budget || out.len() % pass != 0)
        && start.elapsed() < HARD_CAP
    {
        if let Some(t) = tr.as_deref_mut() {
            t.set_counted(i < pass);
        }
        w.op(i, tr.as_deref_mut(), &mut out);
        i += 1;
        if since.elapsed() >= YARDSTICK_EVERY {
            before = rescale(&mut out[block..], before);
            (block, since) = (out.len(), Instant::now());
        }
    }
    rescale(&mut out[block..], before);
    w.finish(&mut out);
    out
}

/// Scales the ops of a block to the reference host speed, from the
/// yardstick's time `before` the block and now. Returns the latter.
fn rescale(block: &mut [Sample], before: f64) -> f64 {
    let after = yardstick::measure();
    let f = yardstick::factor(before, after);
    for s in block {
        s.ms = s.raw_ms * f;
    }
    after
}

/// Runs `f` and returns its result with its duration in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Accumulates the seconds of program work during a set-up.
#[derive(Debug, Default)]
pub struct Stopwatch(f64);

impl Stopwatch {
    /// Runs `f`, adding its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (r, ms) = timed(f);
        self.0 += ms / 1e3;
        r
    }

    /// Seconds accumulated.
    pub fn seconds(&self) -> f64 {
        self.0
    }
}

/// Runs an op body, turning a panic into a failed op. The body returns
/// its result (or `None` on an error) and its duration in ms.
pub fn guarded<T>(f: impl FnOnce() -> (Option<T>, f64)) -> (Option<T>, f64) {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or((None, 0.0))
}

/// The root's synthesized attribute values: the output an op is checked
/// on.
pub type RootOutput = Vec<Option<Value>>;

/// The root output of a decorated tree.
pub fn root_output(g: &Grammar, tree: &Tree, values: &AttrValues) -> RootOutput {
    g.synthesized(g.root())
        .into_iter()
        .map(|a| values.get(g, tree.root(), a).cloned())
        .collect()
}

/// The independent reference: the demand-driven evaluator's root output,
/// or a deliberately wrong one when `corrupt`.
///
/// # Panics
///
/// Panics if the reference evaluator fails on a generated input (a
/// benchmark bug: the inputs are chosen so that no operation fails).
pub fn reference(g: &Grammar, tree: &Tree, corrupt: bool) -> RootOutput {
    if corrupt {
        return vec![Some(Value::str("deliberately wrong reference"))];
    }
    let (values, _) = DynamicEvaluator::new(g)
        .evaluate(tree, &RootInputs::new())
        .expect("reference evaluation of a generated input");
    root_output(g, tree, &values)
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut fnc2_corpus::rng::Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` sizes from `lo..hi`, one drawn from the middle third of each of
/// `n` equal strata, so that the size mix barely moves from seed to seed.
pub fn stratified(rng: &mut fnc2_corpus::rng::Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n)
        .map(|j| {
            let at = (j as f64 + (1.0 + unit(rng)) / 3.0) / n as f64;
            lo + (at * (hi - lo) as f64) as usize
        })
        .collect()
}
