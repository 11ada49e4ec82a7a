//! Partition-search scaling bench: wall-clock and states-explored of the
//! optimized DP engine (strategy cache + dominance pruning + plan cache)
//! against the reference `unoptimized_search`, for an MLP and WResNet-50 at
//! 2/4/8 workers, written to `BENCH_search.json`.
//!
//! This is also a correctness gate: the process exits nonzero when the
//! optimized engine's total plan cost is not bit-identical to the
//! reference's, or when it explores at least as many states — the two
//! properties the optimization work is contractually required to hold
//! (see DESIGN.md "Search performance").

use std::time::Instant;

use tofu_bench::{bench_report, write_report, Json};
use tofu_core::recursive::{partition_cached, PartitionOptions};
use tofu_core::{SearchCaches, SearchTuning};
use tofu_graph::Graph;
use tofu_models::{mlp, wresnet, MlpConfig, WResNetConfig};
use tofu_obs::Collector;

const WORKERS: [usize; 3] = [2, 4, 8];

/// Repeated-hit samples for the warm-cache p50: enough to make the median
/// robust against scheduler noise, cheap because every call is a cache hit.
const WARM_HIT_SAMPLES: usize = 32;

struct Row {
    model: &'static str,
    workers: usize,
    ref_seconds: f64,
    opt_seconds: f64,
    warm_seconds: f64,
    warm_hit_p50: f64,
    ref_states: f64,
    opt_states: f64,
    prune_dominated: f64,
    prune_beam: f64,
    strategy_hits: f64,
    plan_hits_warm: f64,
    cost: f64,
    identical: bool,
}

fn total(c: &Collector, key: &str) -> f64 {
    c.totals().get(key).copied().unwrap_or(0.0)
}

fn measure(
    model: &'static str,
    g: &Graph,
    workers: usize,
    warm: &mut SearchCaches,
) -> Row {
    let reference_opts =
        PartitionOptions { workers, tuning: SearchTuning::reference(), ..Default::default() };
    let optimized_opts = PartitionOptions { workers, ..Default::default() };

    let ref_obs = Collector::new();
    let t0 = Instant::now();
    let ref_plan = partition_cached(g, &reference_opts, &SearchCaches::new(), Some(&ref_obs))
        .expect("reference");
    let ref_seconds = t0.elapsed().as_secs_f64();

    let opt_obs = Collector::new();
    let t0 = Instant::now();
    let opt_plan = partition_cached(g, &optimized_opts, &SearchCaches::new(), Some(&opt_obs))
        .expect("optimized");
    let opt_seconds = t0.elapsed().as_secs_f64();

    // Warm row: same query against a caches object shared across the whole
    // (model, workers) sweep — measures cross-call plan-cache reuse. The
    // first call may still solve unseen step fingerprints; the p50 below is
    // taken over repeated calls that are guaranteed plan-cache hits.
    let warm_obs = Collector::new();
    let t0 = Instant::now();
    let warm_plan =
        partition_cached(g, &optimized_opts, warm, Some(&warm_obs)).expect("warm optimized");
    let warm_seconds = t0.elapsed().as_secs_f64();

    let cost = ref_plan.total_comm_bytes();
    let mut hit_samples = Vec::with_capacity(WARM_HIT_SAMPLES);
    let mut hits_identical = true;
    for _ in 0..WARM_HIT_SAMPLES {
        let t0 = Instant::now();
        let hit_plan = partition_cached(g, &optimized_opts, warm, None).expect("warm hit");
        hit_samples.push(t0.elapsed().as_secs_f64());
        hits_identical &= hit_plan.total_comm_bytes().to_bits() == cost.to_bits();
    }
    hit_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let warm_hit_p50 = hit_samples[hit_samples.len() / 2];

    let identical = opt_plan.total_comm_bytes().to_bits() == cost.to_bits()
        && warm_plan.total_comm_bytes().to_bits() == cost.to_bits()
        && hits_identical;
    Row {
        model,
        workers,
        ref_seconds,
        opt_seconds,
        warm_seconds,
        warm_hit_p50,
        ref_states: total(&ref_obs, "dp/states_explored"),
        opt_states: total(&opt_obs, "dp/states_explored"),
        prune_dominated: total(&opt_obs, "dp/prune_dominated"),
        prune_beam: total(&opt_obs, "dp/prune_beam"),
        strategy_hits: total(&opt_obs, "cache/strategy_hit"),
        plan_hits_warm: total(&warm_obs, "cache/plan_hit"),
        cost,
        identical,
    }
}

fn main() {
    let mlp_model =
        mlp(&MlpConfig { batch: 64, dims: vec![256, 256], classes: 64, with_updates: true })
            .expect("mlp builds");
    let wres_model = wresnet(&WResNetConfig {
        layers: 50,
        width: 1,
        batch: 8,
        image: 16,
        classes: 8,
        with_updates: true,
    })
    .expect("wresnet builds");

    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;
    for (name, g) in [
        ("mlp-256x2 (batch 64)", &mlp_model.graph),
        ("wresnet-50-1 (batch 8)", &wres_model.graph),
    ] {
        // One warm cache per model: worker counts share 2-way step
        // fingerprints, which is exactly the reuse the plan cache targets.
        let mut warm = SearchCaches::new();
        println!("\n{name} — reference vs optimized search");
        println!(
            "{:<8} {:>9} {:>9} {:>9} {:>10} {:>8} {:>12} {:>12} {:>10} {:>6}",
            "workers", "ref s", "opt s", "warm s", "hit p50 µs", "speedup", "ref states", "opt states",
            "pruned", "ident"
        );
        println!("{}", "-".repeat(103));
        for workers in WORKERS {
            let r = measure(name, g, workers, &mut warm);
            println!(
                "{:<8} {:>9.3} {:>9.3} {:>9.3} {:>10.1} {:>7.2}x {:>12.0} {:>12.0} {:>10.0} {:>6}",
                r.workers,
                r.ref_seconds,
                r.opt_seconds,
                r.warm_seconds,
                r.warm_hit_p50 * 1e6,
                r.ref_seconds / r.opt_seconds.max(1e-12),
                r.ref_states,
                r.opt_states,
                r.prune_dominated + r.prune_beam,
                r.identical,
            );
            if !r.identical {
                eprintln!(
                    "FAIL: {name} w={workers}: optimized cost differs from reference ({})",
                    r.cost
                );
                failed = true;
            }
            // Tiny searches (the MLP) give pruning nothing to remove, so
            // equality is legitimate there; on any nontrivial search the
            // optimized engine must visit strictly fewer states.
            let strict = r.ref_states > 100_000.0;
            if r.opt_states > r.ref_states || (strict && r.opt_states >= r.ref_states) {
                eprintln!(
                    "FAIL: {name} w={workers}: optimized explored {} states, reference {}",
                    r.opt_states, r.ref_states
                );
                failed = true;
            }
            rows.push(r);
        }
    }

    let results = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("model", Json::from(r.model)),
                ("workers", Json::from(r.workers)),
                ("reference_seconds", Json::from(r.ref_seconds)),
                ("optimized_seconds", Json::from(r.opt_seconds)),
                ("warm_cache_seconds", Json::from(r.warm_seconds)),
                ("warm_hit_p50_seconds", Json::from(r.warm_hit_p50)),
                ("speedup", Json::from(r.ref_seconds / r.opt_seconds.max(1e-12))),
                ("reference_states_explored", Json::from(r.ref_states)),
                ("optimized_states_explored", Json::from(r.opt_states)),
                ("prune_dominated", Json::from(r.prune_dominated)),
                ("prune_beam", Json::from(r.prune_beam)),
                ("strategy_cache_hits", Json::from(r.strategy_hits)),
                ("warm_plan_cache_hits", Json::from(r.plan_hits_warm)),
                ("total_comm_bytes", Json::from(r.cost)),
                ("cost_identical", Json::Bool(r.identical)),
            ])
        })
        .collect();
    let doc = bench_report("search_scaling", Vec::new(), results);
    write_report("BENCH_search.json", &doc);

    if failed {
        eprintln!("search_scaling: optimized engine violated its contract (see FAIL lines)");
        std::process::exit(1);
    }
}
