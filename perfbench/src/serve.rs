//! `serve-plans`: plan requests against an in-process plan server.
//!
//! Requests are pipelined over one connection: a writer thread sends, a
//! reader thread parses responses and matches them by id. The request
//! stream cycles through every (model, width) pair of a seeded population
//! in seeded order, the large WResNet graphs three times as often as the
//! small MLP and decoder graphs; every twentieth request instead carries a
//! model variant never asked for before, so its fingerprint is cold.
//!
//! The mix puts the median inside the band of large-graph hits and the
//! tail among the slowest hits, clear of the cold misses above them: a
//! percentile that fell on the border between two bands would move with
//! every seed.
//!
//! Three loads are measured, each request timed from when it was due to
//! its parsed response. A lone client, one request in flight, gives the
//! latency figures: each request's own service time. An open loop with
//! seeded Poisson arrivals at a fixed rate shows what bursts add (printed,
//! not bounded: on two CPUs, whether two large requests overlap swings
//! its percentiles from seed to seed). A closed loop that keeps a fixed
//! number of requests in flight gives the highest sustained rate whose
//! tail latency meets the limit.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use tofu_core::{PartitionPlan, SearchCaches};
use tofu_graph::Graph;
use tofu_models::{DecoderConfig, MlpConfig};
use tofu_obs::{Collector, Phase, Track};
use tofu_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use tofu_serve::{Request, Response};

use crate::inputs::{ModelSpec, Rng};
use crate::layers::{self, PlanService, Res};
use crate::report::{timed_setups, Outcome, Run};
use crate::spans::SpanLog;
use crate::stats::{mean, median, tail};

/// Widths every model is requested at. Search is single-threaded, so
/// widths above the host's CPUs are fine here.
const WIDTHS: [usize; 3] = [2, 4, 8];
/// Every this-many-th request carries a new fingerprint.
const COLD_EVERY: usize = 20;
/// How many times each WResNet pair appears per cycle of the stream.
const WRESNET_WEIGHT: usize = 3;
/// Offered rate of the open loop, requests per second.
const OPEN_RATE: f64 = 5.0;
/// Share of `--seconds` a lone client (one request in flight) runs.
const LONE_SHARE: f64 = 0.35;
/// Share of `--seconds` the open loop runs; the rest measures the closed
/// loop with several requests in flight.
const OPEN_SHARE: f64 = 0.2;
/// Requests in flight in the closed loop, tried in this order until the
/// tail latency meets [`TAIL_LIMIT_S`].
const WINDOWS: [usize; 3] = [4, 2, 1];
/// Tail latency limit of the closed loop.
const TAIL_LIMIT_S: f64 = 1.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Longest wait for an outstanding response once sending stopped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Most requests one phase can send; the stream is built up front.
const STREAM_LEN: usize = 1200;
/// Id of the ping that marks the end of a phase's requests: above any
/// request id, and exact in the protocol's JSON numbers (f64).
const SENTINEL: u64 = 1 << 52;

/// One request: a model of the population at a width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    model: usize,
    workers: usize,
}

/// The seeded models and the request stream over them.
struct Population {
    specs: Vec<ModelSpec>,
    graphs: Vec<Graph>,
    /// Every (model, width) pair of the three base models.
    base: Vec<Key>,
    stream: Vec<Key>,
}

fn variant(family: usize, classes: usize) -> ModelSpec {
    match family {
        0 => ModelSpec::Mlp(MlpConfig {
            batch: 64,
            dims: vec![256, 256],
            classes,
            with_updates: true,
        }),
        1 => ModelSpec::Decoder(DecoderConfig {
            seq: 64,
            d_model: 64,
            heads: 4,
            d_ff: 256,
            classes,
            with_updates: true,
        }),
        _ => ModelSpec::wresnet_50_1(classes),
    }
}

fn population(log: &mut SpanLog, seed: u64) -> Res<Population> {
    let mut rng = Rng::new(seed, 0x5e7e);
    // Variants differ in their class count only, so a new variant changes
    // the fingerprint while its graph keeps its size.
    let mut pools: Vec<Vec<usize>> = (0..3)
        .map(|_| {
            let mut p: Vec<usize> = (1..=64).map(|i| 8 * i).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let mut specs: Vec<ModelSpec> = (0..3)
        .map(|f| variant(f, pools[f].pop().expect("pool")))
        .collect();
    let base: Vec<Key> = (0..3)
        .flat_map(|model| WIDTHS.iter().map(move |&workers| Key { model, workers }))
        .collect();
    let cycle: Vec<Key> = base
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, if k.model == 2 { WRESNET_WEIGHT } else { 1 }))
        .collect();
    let mut stream = Vec::with_capacity(STREAM_LEN);
    let mut block = Vec::new();
    for i in 0..STREAM_LEN {
        if i % COLD_EVERY == COLD_EVERY - 1 {
            // Cold requests cycle through families and widths in a fixed
            // order, so every seed asks for the same search work.
            let k = i / COLD_EVERY;
            let family = k % 3;
            let classes = pools[family].pop().ok_or("variant pool exhausted")?;
            specs.push(variant(family, classes));
            stream.push(Key {
                model: specs.len() - 1,
                workers: WIDTHS[(k / 3) % 3],
            });
            continue;
        }
        if block.is_empty() {
            block = cycle.clone();
            rng.shuffle(&mut block);
        }
        stream.push(block.pop().expect("refilled above"));
    }
    let graphs = specs
        .iter()
        .map(|s| layers::build(log, s).map(|m| m.graph))
        .collect::<Res<_>>()?;
    Ok(Population {
        specs,
        graphs,
        base,
        stream,
    })
}

/// How a phase paces its requests.
#[derive(Clone, Copy)]
enum Mode {
    /// Poisson arrivals at `rate` per second for `secs` seconds.
    Open { rate: f64, secs: f64, seed: u64 },
    /// Keep `window` requests in flight for `secs` seconds.
    Closed { window: usize, secs: f64 },
}

/// One request as sent; times are seconds on the run's clock.
struct Sent {
    id: u64,
    key: Key,
    due: f64,
    start: f64,
    end: f64,
}

/// One response as received. Only what the checks need is kept: holding
/// every parsed plan would make each parse fault in fresh memory.
struct Got {
    id: u64,
    at: f64,
    /// Seconds spent parsing the response.
    parse: f64,
    /// The served plan, or why there was none.
    reply: Res<Served>,
}

/// A served plan's identity.
struct Served {
    cached: bool,
    fingerprint: String,
    /// Digest of the whole response frame.
    digest: u64,
}

/// Digest of a frame, for comparing served frames without keeping them.
fn digest(frame: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(frame);
    h.finish()
}

/// What one phase sent and received.
struct Exchange {
    sent: Vec<Sent>,
    got: Vec<Got>,
    started: f64,
    errors: Vec<String>,
}

impl Exchange {
    /// Due-to-answer latencies of the answers `pick` selects.
    fn latencies(&self, pick: impl Fn(&Got) -> bool) -> Vec<f64> {
        let due: BTreeMap<u64, f64> = self.sent.iter().map(|s| (s.id, s.due)).collect();
        self.got
            .iter()
            .filter_map(|g| pick(g).then_some(g.at - due.get(&g.id)?))
            .collect()
    }
}

fn cached(g: &Got) -> Option<bool> {
    g.reply.as_ref().ok().map(|r| r.cached)
}

/// Sends `keys` in order under `mode`, starting at id `first_id`; stops
/// when the phase's time is up or the keys run out, then waits for every
/// answer. `log` gets the writer's and reader's spans.
fn drive(
    svc: &mut PlanService,
    graphs: &[Graph],
    keys: &[Key],
    first_id: u64,
    mode: Mode,
    clock: &Collector,
    log: &mut SpanLog,
) -> Exchange {
    let now = || clock.now_us() / 1e6;
    let started = now();
    let traced = log.on();
    let new_log = || {
        if traced {
            SpanLog::enabled(clock.clone())
        } else {
            SpanLog::disabled()
        }
    };
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let sent_count = AtomicUsize::new(0);
    let mut errors = Vec::new();
    let (writer, reader) = (&mut svc.writer, &mut svc.reader);
    if let Err(e) = reader.set_read_timeout(Some(DRAIN_TIMEOUT)) {
        errors.push(format!("set read timeout: {e}"));
    }
    let (sent, wlog, werr, got, rlog, rerr) = std::thread::scope(|scope| {
        let sent_count = &sent_count;
        let w = scope.spawn(move || {
            let mut wlog = new_log();
            let mut sent = Vec::new();
            let mut err = None;
            let mut arrivals = match mode {
                Mode::Open { seed, .. } => Some(Rng::new(seed, 0xa771)),
                Mode::Closed { .. } => None,
            };
            let mut due = started;
            let mut in_flight = 0usize;
            for (i, &key) in keys.iter().enumerate() {
                match mode {
                    Mode::Open { rate, secs, .. } => {
                        let rng = arrivals.as_mut().expect("open loop has arrivals");
                        due += -rng.unit().ln() / rate;
                        if due > started + secs {
                            break;
                        }
                        let wait = due - now();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                    }
                    Mode::Closed { window, secs } => {
                        while in_flight >= window {
                            if done_rx.recv().is_err() {
                                break;
                            }
                            in_flight -= 1;
                        }
                        due = now();
                        if due > started + secs {
                            break;
                        }
                    }
                }
                let id = first_id + i as u64;
                let start = now();
                let payload =
                    layers::encode_request(&mut wlog, id, &graphs[key.model], key.workers);
                if let Err(e) = write_frame(writer, &payload) {
                    err = Some(format!("send request {id}: {e}"));
                    break;
                }
                let end = now();
                in_flight += 1;
                sent.push(Sent {
                    id,
                    key,
                    due,
                    start,
                    end,
                });
            }
            sent_count.store(sent.len(), Ordering::SeqCst);
            if let Err(e) = write_frame(writer, &Request::Ping { id: SENTINEL }.to_bytes()) {
                err.get_or_insert(format!("send end marker: {e}"));
            }
            (sent, wlog, err)
        });
        let r = scope.spawn(move || {
            let mut rlog = new_log();
            let mut got = Vec::new();
            let mut err = None;
            let mut total = None;
            while total.is_none_or(|t| got.len() < t) {
                let payload = match read_frame(reader, DEFAULT_MAX_FRAME) {
                    Ok(Some(p)) => p,
                    Ok(None) => {
                        err = Some("server closed the connection".to_string());
                        break;
                    }
                    Err(e) => {
                        err = Some(format!("read response: {e}"));
                        break;
                    }
                };
                // A request is answered once its response is parsed, as a
                // blocking client would return it.
                let read = now();
                let response = layers::parse_response(&mut rlog, &payload);
                let at = now();
                let parse = at - read;
                let (id, reply) = match response {
                    Ok(Response::Pong { id: SENTINEL }) => {
                        total = Some(sent_count.load(Ordering::SeqCst));
                        continue;
                    }
                    Ok(Response::Plan {
                        id,
                        cached,
                        fingerprint,
                        ..
                    }) => (
                        id,
                        Ok(Served {
                            cached,
                            fingerprint,
                            digest: digest(&payload),
                        }),
                    ),
                    Ok(Response::Error { id, code, message }) => (
                        id,
                        Err(format!("server error {}: {message}", code.as_str())),
                    ),
                    Ok(other) => (0, Err(format!("unexpected response {other:?}"))),
                    Err(e) => (0, Err(e)),
                };
                let _ = done_tx.send(());
                got.push(Got {
                    id,
                    at,
                    parse,
                    reply,
                });
            }
            drop(done_tx);
            (got, rlog, err)
        });
        let (sent, wlog, werr) = w.join().expect("writer thread panicked");
        let (got, rlog, rerr) = r.join().expect("reader thread panicked");
        (sent, wlog, werr, got, rlog, rerr)
    });
    errors.extend(werr);
    errors.extend(rerr);
    log.absorb(wlog);
    log.absorb(rlog);
    Exchange {
        sent,
        got,
        started,
        errors,
    }
}

/// A warmed service: the server has answered every base request once.
struct Service {
    svc: PlanService,
    next_id: u64,
    /// Position in the request stream.
    next: usize,
    requests: u64,
}

fn start(
    pop: &Population,
    collector: Option<Collector>,
    clock: &Collector,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> Res<Service> {
    let mut svc = layers::plan_service(collector)?;
    // One base request at a time: concurrent solves would share search
    // work in whatever order the solver threads happen to run.
    let warm = drive(
        &mut svc,
        &pop.graphs,
        &pop.base,
        1,
        Mode::Closed {
            window: 1,
            secs: f64::MAX,
        },
        clock,
        log,
    );
    let mut s = Service {
        svc,
        next_id: 1 + pop.base.len() as u64,
        next: 0,
        requests: 0,
    };
    account(out, &warm, &mut s, None);
    if warm.got.len() != pop.base.len() {
        return Err(format!(
            "warm-up answered {} of {} requests",
            warm.got.len(),
            pop.base.len()
        ));
    }
    Ok(s)
}

/// Counts a phase's requests into `out`; with `check`, verifies each
/// answer against the local plan.
fn account(out: &mut Outcome, p: &Exchange, s: &mut Service, check: Option<&mut Checker>) {
    s.requests += p.sent.len() as u64;
    out.attempted += p.sent.len() as u64;
    for e in &p.errors {
        out.fail(e.clone());
    }
    let by_id: BTreeMap<u64, &Got> = p.got.iter().map(|g| (g.id, g)).collect();
    let mut check = check;
    for sent in &p.sent {
        let result = match by_id.get(&sent.id) {
            None => Err(format!("request {} was never answered", sent.id)),
            Some(g) => match (&g.reply, check.as_deref_mut()) {
                (Ok(served), Some(c)) => c.verify(sent, served),
                (Ok(_), None) => Ok(()),
                (Err(e), _) => Err(format!("request {}: {e}", sent.id)),
            },
        };
        if let Err(e) = result {
            out.fail(e);
        }
    }
}

/// Served plans against a local `partition` of the same request.
struct Checker<'a> {
    pop: &'a Population,
    caches: SearchCaches,
    plans: BTreeMap<Key, (u128, PartitionPlan)>,
}

impl Checker<'_> {
    fn plan(&mut self, key: Key) -> Res<&(u128, PartitionPlan)> {
        if !self.plans.contains_key(&key) {
            let g = &self.pop.graphs[key.model];
            let mut off = SpanLog::disabled();
            let fp = layers::fingerprint(&mut off, g, key.workers);
            let plan = layers::partition(&mut off, g, key.workers, &mut self.caches, None)?;
            self.plans.insert(key, (fp, plan));
        }
        Ok(&self.plans[&key])
    }

    fn verify(&mut self, sent: &Sent, served: &Served) -> Res<()> {
        let (fp, plan) = self.plan(sent.key)?;
        if digest(&layers::expected_response(
            sent.id,
            served.cached,
            *fp,
            plan,
        )) != served.digest
        {
            return Err(format!(
                "request {}: served plan for {} at w={} differs from the local partition",
                sent.id, self.pop.specs[sent.key.model], sent.key.workers
            ));
        }
        Ok(())
    }
}

/// The four serve counters must account for every request sent.
fn check_counters(svc: &PlanService, sent: u64) -> Res<[u64; 4]> {
    let c = svc.server.counters();
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);
    let parts = [
        load(&c.hits),
        load(&c.misses),
        load(&c.joined),
        load(&c.rejected),
    ];
    counters_balance(parts, load(&c.requests), sent)?;
    Ok(parts)
}

/// `hits + misses + joined + rejected == requests == sent`.
fn counters_balance(parts: [u64; 4], requests: u64, sent: u64) -> Res<()> {
    let sum: u64 = parts.iter().sum();
    if sum != requests || requests != sent {
        return Err(format!(
            "serve counters {parts:?} sum to {sum}, server counted {requests} requests, \
             {sent} were sent"
        ));
    }
    Ok(())
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let clock = Collector::new();
    let mut log = if run.trace {
        SpanLog::enabled(clock.clone())
    } else {
        SpanLog::disabled()
    };
    let mut out = Outcome::new();
    if run.trace {
        traced(run, &clock, &mut log, &mut out);
    } else {
        untraced(run, &clock, &mut out);
    }
    out.spans = log;
    out
}

fn describe(out: &mut Outcome, pop: &Population) {
    out.note(format!(
        "config: base models {}, {}, {} (x{WRESNET_WEIGHT}) at widths {WIDTHS:?}; every \
         {COLD_EVERY}th request a new variant; one request in flight, then an open loop at \
         {OPEN_RATE} req/s Poisson, then closed-loop windows {WINDOWS:?} with a \
         {TAIL_LIMIT_S} s tail limit; default ServeConfig",
        pop.specs[0], pop.specs[1], pop.specs[2]
    ));
}

/// Runs one phase over the stream from `s.next`, advancing it.
fn phase(
    s: &mut Service,
    pop: &Population,
    mode: Mode,
    clock: &Collector,
    log: &mut SpanLog,
) -> Exchange {
    let p = drive(
        &mut s.svc,
        &pop.graphs,
        &pop.stream[s.next..],
        s.next_id,
        mode,
        clock,
        log,
    );
    s.next_id += p.sent.len() as u64;
    s.next += p.sent.len();
    p
}

fn untraced(run: &Run, clock: &Collector, out: &mut Outcome) {
    let mut off = SpanLog::disabled();
    let (setup_times, ready) = timed_setups(SETUP_REPS, || {
        let pop = population(&mut off, run.seed)?;
        let s = start(&pop, None, clock, &mut off, out)?;
        Ok((pop, s))
    });
    out.attempted += 1;
    let (pop, mut s) = match ready {
        Ok(x) => x,
        Err(e) => return out.fail(e),
    };
    describe(out, &pop);
    let lone_secs = run.seconds * LONE_SHARE;
    let open_secs = run.seconds * OPEN_SHARE;
    let closed_secs = run.seconds - lone_secs - open_secs;
    let lone = phase(
        &mut s,
        &pop,
        Mode::Closed {
            window: 1,
            secs: lone_secs,
        },
        clock,
        &mut off,
    );
    let lat = lone.latencies(|_| true);
    let miss = lone.latencies(|g| cached(g) == Some(false));
    let open = phase(
        &mut s,
        &pop,
        Mode::Open {
            rate: OPEN_RATE,
            secs: open_secs,
            seed: run.seed,
        },
        clock,
        &mut off,
    );
    let due = open.latencies(|_| true);
    let lag = open
        .sent
        .iter()
        .map(|x| x.start - x.due)
        .fold(0.0, f64::max);

    let mut max_rps = None;
    let mut phases = vec![lone, open];
    for window in WINDOWS {
        let p = phase(
            &mut s,
            &pop,
            Mode::Closed {
                window,
                secs: closed_secs,
            },
            clock,
            &mut off,
        );
        let l = p.latencies(|_| true);
        let (tp, tv) = tail(&l);
        // Answers that arrived within the phase's time, over that time: the
        // answers still outstanding when sending stopped do not count.
        let on_time = p
            .got
            .iter()
            .filter(|g| g.at <= p.started + closed_secs)
            .count();
        let rps = on_time as f64 / closed_secs;
        out.note(format!(
            "closed loop, {window} in flight: {rps:.3} req/s, p50 {:.6} s, p{tp} {tv:.6} s, {} requests",
            median(&l),
            l.len()
        ));
        phases.push(p);
        if tv <= TAIL_LIMIT_S {
            max_rps = Some(rps);
            break;
        }
    }

    let mut checker = Checker {
        pop: &pop,
        caches: SearchCaches::new(),
        plans: BTreeMap::new(),
    };
    for p in &phases {
        account(out, p, &mut s, Some(&mut checker));
    }
    out.check(check_counters(&s.svc, s.requests).map(|_| ()));
    let Some(max_rps) = max_rps else {
        return out.fail(format!(
            "no closed-loop window met the {TAIL_LIMIT_S} s tail limit"
        ));
    };
    let (p, tail_v) = tail(&lat);
    let (dp, due_tail) = tail(&due);
    out.set("setup_s", median(&setup_times));
    out.set("op_s.p50", median(&lat));
    out.set("op_s.tail", tail_v);
    out.set("work_per_s", max_rps);
    out.note(format!(
        "one in flight: plan_s.p50 {:.6} s | plan_s.p{p} {tail_v:.6} s | \
         plan_miss_s.p50 {:.6} s ({} misses) | {} requests",
        median(&lat),
        median(&miss),
        miss.len(),
        lat.len()
    ));
    out.note(format!(
        "open loop from due time: plan_s.p50 {:.6} s | plan_s.p{dp} {due_tail:.6} s | \
         gen lag max {lag:.6} s | {} requests",
        median(&due),
        due.len()
    ));
    out.note(format!("plan_max_rps {max_rps:.3}"));
}

fn traced(run: &Run, clock: &Collector, log: &mut SpanLog, out: &mut Outcome) {
    let lone = Mode::Closed {
        window: 1,
        secs: run.seconds / 2.0 * LONE_SHARE / (LONE_SHARE + OPEN_SHARE),
    };
    let open = Mode::Open {
        rate: OPEN_RATE,
        secs: run.seconds / 2.0 * OPEN_SHARE / (LONE_SHARE + OPEN_SHARE),
        seed: run.seed,
    };
    // Untraced service first, for the overhead baseline.
    let mut off = SpanLog::disabled();
    out.attempted += 1;
    let pop = match population(log, run.seed) {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    describe(out, &pop);
    let plain_lat = match start(&pop, None, clock, &mut off, out) {
        Ok(mut s) => {
            let phases = [
                phase(&mut s, &pop, lone, clock, &mut off),
                phase(&mut s, &pop, open, clock, &mut off),
            ];
            for p in &phases {
                account(out, p, &mut s, None);
            }
            phases[0].latencies(|_| true)
        }
        Err(e) => return out.fail(e),
    };
    // The traced server records into the run's clock collector, so its
    // spans share a time base with the benchmark's.
    let sink = clock;
    let mut s = match start(&pop, Some(sink.clone()), clock, log, out) {
        Ok(s) => s,
        Err(e) => return out.fail(e),
    };
    let mut phase_log = SpanLog::enabled(clock.clone());
    let lone_phase = phase(&mut s, &pop, lone, clock, &mut phase_log);
    let open_phase = phase(&mut s, &pop, open, clock, &mut phase_log);
    let lat = lone_phase.latencies(|_| true);
    let lag = open_phase
        .sent
        .iter()
        .map(|x| x.start - x.due)
        .fold(0.0, f64::max);
    let mut checker = Checker {
        pop: &pop,
        caches: SearchCaches::new(),
        plans: BTreeMap::new(),
    };
    account(out, &lone_phase, &mut s, Some(&mut checker));
    account(out, &open_phase, &mut s, Some(&mut checker));
    let counters = check_counters(&s.svc, s.requests);
    let sent: Vec<&Sent> = lone_phase.sent.iter().chain(&open_phase.sent).collect();
    let got: Vec<&Got> = lone_phase.got.iter().chain(&open_phase.got).collect();

    // Replay the server-side decode and fingerprint of each request.
    let mut replay = SpanLog::enabled(clock.clone());
    let mut decode = BTreeMap::new();
    for x in &sent {
        // Encoding is deterministic: this is the payload that was sent.
        let payload =
            layers::encode_request(&mut off, x.id, &pop.graphs[x.key.model], x.key.workers);
        let t0 = replay.now();
        if let Ok(Request::Partition { req, .. }) = layers::decode_request(&mut replay, &payload) {
            let t1 = replay.now();
            layers::fingerprint(&mut replay, &req.graph, req.options.workers);
            decode.insert(x.id, (t1 - t0, replay.now() - t1));
        }
    }
    let per = |l: &SpanLog, name: &str, n: usize| {
        l.self_time_by_name().get(name).copied().unwrap_or(0.0) / n.max(1) as f64
    };
    out.set(
        "serve.encode_s",
        per(&phase_log, "serve.encode", sent.len()),
    );
    out.set(
        "serve.response_parse_s",
        per(&phase_log, "serve.response_parse", got.len()),
    );
    out.set(
        "serve.request_decode_s",
        per(&replay, "serve.request_decode", sent.len()),
    );
    out.set(
        "core.fingerprint_s",
        per(&replay, "core.fingerprint", sent.len()),
    );

    // Solves recorded by the traced server, keyed by fingerprint prefix.
    let solves: Vec<(String, f64, f64)> = sink
        .events()
        .into_iter()
        .filter(|e| e.track == Track::serve() && e.name.starts_with("solve "))
        .filter_map(|e| match e.phase {
            Phase::Complete { dur_us } => {
                Some((e.name[6..14].to_string(), e.ts_us / 1e6, dur_us / 1e6))
            }
            _ => None,
        })
        .collect();
    let sent_by_id: BTreeMap<u64, &Sent> = sent.iter().map(|x| (x.id, *x)).collect();
    let mut queue = Vec::new();
    for g in got.iter().filter(|g| cached(g) == Some(false)) {
        let (Ok(Served { fingerprint, .. }), Some(x)) = (&g.reply, sent_by_id.get(&g.id)) else {
            continue;
        };
        let (dec, fp) = decode.get(&g.id).copied().unwrap_or((0.0, 0.0));
        if let Some((_, begin, _)) = solves
            .iter()
            .find(|(prefix, _, _)| fingerprint.starts_with(prefix.as_str()))
        {
            queue.push((begin - (x.end + dec + fp)).max(0.0));
        }
    }
    out.set("serve.queue_wait_s", mean(&queue));
    let large_hits: Vec<(f64, f64)> = lone_phase
        .got
        .iter()
        .filter(|g| cached(g) == Some(true))
        .filter_map(|g| {
            let x = sent_by_id.get(&g.id)?;
            let large = matches!(pop.specs[x.key.model], ModelSpec::WResNet(_));
            let (dec, _) = decode.get(&g.id)?;
            large.then_some((dec + g.parse, g.at - x.start))
        })
        .collect();
    out.note(format!(
        "check: request decode + response parse is {:.1}% of the latency of {} WResNet hits",
        100.0 * large_hits.iter().map(|x| x.0).sum::<f64>()
            / large_hits.iter().map(|x| x.1).sum::<f64>(),
        large_hits.len()
    ));
    out.set(
        "core.partition_s",
        mean(&solves.iter().map(|s| s.2).collect::<Vec<_>>()),
    );
    let totals = sink.totals();
    out.set(
        "core.states_explored",
        totals.get("dp/states_explored").copied().unwrap_or(0.0) / solves.len().max(1) as f64,
    );
    let stats = s.svc.server.caches().stats();
    out.set("core.cache.request_hit_ratio", stats.request_hit_rate());
    out.set("core.cache.plan_hit_ratio", stats.plan_hit_rate());
    let base_comm: Vec<f64> = pop
        .base
        .iter()
        .filter_map(|&k| {
            checker
                .plan(k)
                .ok()
                .map(|(_, plan)| plan.total_comm_bytes())
        })
        .collect();
    out.set("core.plan_comm_bytes", mean(&base_comm));
    out.set(
        "models.build_s",
        log.self_time_by_name()
            .get("models.build")
            .copied()
            .unwrap_or(0.0),
    );
    out.attempted += 1;
    match counters {
        Ok([hits, misses, joined, rejected]) => {
            out.set("serve.hits", hits as f64);
            out.set("serve.misses", misses as f64);
            out.set("serve.joined", joined as f64);
            out.set("serve.rejected", rejected as f64);
        }
        Err(e) => out.fail(e),
    }
    out.set("bench.gen_lag_s.max", lag);
    let ratio = median(&lat) / median(&plain_lat);
    out.set("bench.trace_overhead_ratio", ratio);
    out.note(format!(
        "trace overhead: traced / untraced plan_s.p50 with one request in flight = {ratio:.4} \
         ({} traced, {} untraced requests)",
        lat.len(),
        plain_lat.len()
    ));
    log.absorb(phase_log);
    log.absorb(replay);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_counters_must_sum_to_requests() {
        assert!(counters_balance([5, 3, 1, 1], 10, 10).is_ok());
        assert!(
            counters_balance([5, 3, 1, 0], 10, 10).is_err(),
            "a request went uncounted"
        );
        assert!(
            counters_balance([5, 3, 1, 1], 10, 11).is_err(),
            "a sent request never arrived"
        );
    }

    #[test]
    fn stream_is_seeded_and_mixes_every_pair() {
        let mut off = SpanLog::disabled();
        let a = population(&mut off, 3).unwrap();
        let b = population(&mut off, 3).unwrap();
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, population(&mut off, 4).unwrap().stream);
        let mut seen = std::collections::BTreeSet::new();
        for (i, key) in a.stream.iter().enumerate() {
            let cold = i % COLD_EVERY == COLD_EVERY - 1;
            assert_eq!(cold, key.model >= 3, "request {i}");
            assert!(
                !cold || seen.insert(key.model),
                "cold variant {} repeats",
                key.model
            );
        }
        // Warm requests cover the nine base pairs, WResNet ones three times
        // as often.
        let mut counts = BTreeMap::new();
        for key in a.stream.iter().filter(|k| k.model < 3) {
            let weight = if key.model == 2 { WRESNET_WEIGHT } else { 1 };
            *counts.entry(*key).or_insert(0.0) += 1.0 / weight as f64;
        }
        assert_eq!(counts.len(), 9);
        let lo = counts.values().copied().fold(f64::MAX, f64::min);
        let hi = counts.values().copied().fold(0.0, f64::max);
        assert!(hi - lo <= hi / 10.0, "uneven mix {counts:?}");
    }
}
