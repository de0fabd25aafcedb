//! Regenerates every table and figure of the paper (DESIGN.md §4).
//!
//! ```sh
//! cargo run --release -p sa-bench --bin experiments            # all
//! cargo run --release -p sa-bench --bin experiments t1.4 t2    # some
//! ```
//!
//! Each experiment prints the rows recorded in EXPERIMENTS.md; the rows
//! of this run, and only those, are written as JSON to
//! `out/experiments_results.json`. `scripts/full.sh` runs every
//! experiment and copies that file over the tracked
//! `experiments_results.json`.

use sa_bench::{f, mps, row, section, timed};
use sa_core::generators::*;
use sa_core::rng::SplitMix64;
use sa_core::stats::*;
use sa_core::traits::*;
use std::collections::HashMap;

struct JsonRow {
    experiment: String,
    label: String,
    metrics: HashMap<String, String>,
}

struct Recorder {
    rows: Vec<JsonRow>,
    current: String,
}

impl Recorder {
    fn section(&mut self, id: &str, title: &str) {
        section(id, title);
        self.current = id.to_string();
    }
    fn row(&mut self, label: &str, cols: &[(&str, String)]) {
        row(label, cols);
        self.rows.push(JsonRow {
            experiment: self.current.clone(),
            label: label.to_string(),
            metrics: cols.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
    }
}

/// Hand-rolled JSON (the build is offline; serde is not vendored).
fn rows_to_json(rows: &[JsonRow]) -> String {
    use sa_platform::metrics::escape_json as esc;
    use std::fmt::Write as _;
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let mut metrics: Vec<(&String, &String)> = row.metrics.iter().collect();
        metrics.sort();
        let body = metrics
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "  {{\"experiment\": \"{}\", \"label\": \"{}\", \"metrics\": {{{}}}}}{}",
            esc(&row.experiment),
            esc(&row.label),
            body,
            sep
        );
    }
    out.push(']');
    out
}

type Experiment = fn(&mut Recorder);

/// Every experiment by its CLI id, in the order a full run executes them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("t1.1", t1_1_sampling),
    ("t1.2", t1_2_filtering),
    ("t1.3", t1_3_correlation),
    ("t1.4", t1_4_cardinality),
    ("t1.5", t1_5_quantiles),
    ("t1.6", t1_6_moments),
    ("t1.7", t1_7_frequent),
    ("t1.8", t1_8_inversions),
    ("t1.9", t1_9_subsequences),
    ("t1.10", t1_10_paths),
    ("t1.11", t1_11_anomaly),
    ("t1.12", t1_12_patterns),
    ("t1.13", t1_13_prediction),
    ("t1.14", t1_14_clustering),
    ("t1.15", t1_15_graph),
    ("t1.16", t1_16_basic_counting),
    ("t1.17", t1_17_significant),
    ("t2", t2_platform),
    ("t2.b", t2_batch_ablation),
    ("t2.c", t2c_recovery),
    ("t2.d", t2d_observability),
    ("t2.e", t2e_event_time),
    ("t2.f", t2f_supervision),
    ("t2.g", t2g_query_serving),
    ("t2.h", t2h_scheduler),
    ("t2.j", t2j_rescale),
    ("t2.k", t2k_durability),
    ("f1", f1_lambda),
    ("s2.h", s2_histograms),
    ("s2.w", s2_wavelets),
];

const RESULTS: &str = "out/experiments_results.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The T2.K kill -9 harness re-execs this binary as its victim; the
    // child runs a durable topology until SIGKILLed and records nothing.
    if args.iter().any(|a| a == "t2.k-child") {
        t2k_child();
        return;
    }
    // A typo must not pass as an empty run that still writes results.
    let known = |a: &str| a == "all" || EXPERIMENTS.iter().any(|(id, _)| *id == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment '{bad}'; known: all {}", ids.join(" "));
        std::process::exit(2);
    }
    let mut r = Recorder { rows: Vec::new(), current: String::new() };
    for (id, run) in EXPERIMENTS {
        if args.is_empty() || args.iter().any(|a| a == id || a == "all") {
            run(&mut r);
        }
    }

    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write(RESULTS, rows_to_json(&r.rows)).expect("write the results file");
    println!("\n[{} rows in {RESULTS}]", r.rows.len());
}

// ---------------------------------------------------------------- T1.1
fn t1_1_sampling(r: &mut Recorder) {
    use sa_sampling::*;
    r.section("T1.1", "Sampling (A/B testing) — uniformity, recency, windows");
    let n = 1_000_000usize;
    // A/B test scenario: population mean of a biased metric must be
    // preserved by the sample.
    let mut rng = SplitMix64::new(5);
    let stream: Vec<f64> = (0..n).map(|i| i as f64 / n as f64 + rng.next_f64() * 0.01).collect();
    let true_mean = mean(&stream);
    for (name, algo) in [("reservoir-R", ReservoirAlgo::R), ("reservoir-L", ReservoirAlgo::L)] {
        let (res, secs) = timed(|| {
            let mut s = Reservoir::new(10_000, algo).unwrap().with_seed(1);
            for &x in &stream {
                s.offer(x);
            }
            s
        });
        let m = mean(res.sample());
        r.row(
            name,
            &[
                ("sample_mean_err", f((m - true_mean).abs() / true_mean)),
                ("k", "10000".into()),
                ("Mitems/s", f(mps(n, secs))),
            ],
        );
    }
    let (bern, secs) = timed(|| {
        let mut s = BernoulliSampler::new(0.01).unwrap();
        for &x in &stream {
            s.offer(x);
        }
        s
    });
    r.row(
        "bernoulli(p=1%)",
        &[
            ("sample_size", bern.sample().len().to_string()),
            ("unbounded", "yes".into()),
            ("Mitems/s", f(mps(n, secs))),
        ],
    );
    // Recency-biased: mean sample age.
    let mut br = BiasedReservoir::new(1_000).unwrap().with_seed(2);
    for i in 0..n as u64 {
        br.offer(i);
    }
    let mean_age =
        n as f64 - 1.0 - mean(&br.sample().iter().map(|&v| v as f64).collect::<Vec<_>>());
    r.row("biased-reservoir(k=1000)", &[("mean_age", f(mean_age)), ("expected≈k", "1000".into())]);
    // Sliding-window samplers.
    let mut cs = ChainSampler::new(100, 10_000).unwrap().with_seed(3);
    let mut ps = PrioritySampler::new(100, 10_000).unwrap().with_seed(4);
    for i in 0..n as u64 {
        cs.offer(i);
        ps.offer(i);
    }
    r.row(
        "chain-sampler(w=10k)",
        &[
            ("live_samples", cs.sample().len().to_string()),
            ("stored_links", cs.stored_links().to_string()),
        ],
    );
    r.row(
        "priority-sampler(w=10k)",
        &[("live_samples", ps.sample().len().to_string()), ("stored", ps.stored().to_string())],
    );
    // Distributed: 4 sites, skewed volumes.
    let mut ds = DistributedSampler::new(4, 500).unwrap();
    for site in 0..4usize {
        for i in 0..(site + 1) * 100_000 {
            ds.offer(site, (site, i));
        }
    }
    let sample = ds.global_sample().unwrap();
    let frac3 = sample.iter().filter(|(s, _)| *s == 3).count() as f64 / sample.len() as f64;
    r.row("distributed(4 sites)", &[("site3_fraction", f(frac3)), ("expected", "0.4".into())]);
}

// ---------------------------------------------------------------- T1.2
fn t1_2_filtering(r: &mut Recorder) {
    use sa_sketches::membership::*;
    r.section("T1.2", "Filtering (set membership) — fpp vs bits/item");
    let n = 1_000_000usize;
    for target_fpp in [0.01, 0.001] {
        let mut bf = BloomFilter::with_fpp(n, target_fpp).unwrap();
        let (_, secs) = timed(|| {
            for i in 0..n as u64 {
                bf.insert(&i);
            }
        });
        let fp = ((n as u64)..(n as u64 + 200_000)).filter(|i| bf.contains(i)).count();
        r.row(
            &format!("bloom(fpp={target_fpp})"),
            &[
                ("measured_fpp", f(fp as f64 / 200_000.0)),
                ("bits/item", f(bf.bits() as f64 / n as f64)),
                ("Mops/s", f(mps(n, secs))),
            ],
        );
    }
    let mut pbf = PartitionedBloomFilter::new(n * 10, 7).unwrap();
    for i in 0..n as u64 {
        pbf.insert(&i);
    }
    let fp = ((n as u64)..(n as u64 + 200_000)).filter(|i| pbf.contains(i)).count();
    r.row("partitioned-bloom(10 bits/item)", &[("measured_fpp", f(fp as f64 / 200_000.0))]);
    let mut cbf = CountingBloomFilter::new(n * 3, 7).unwrap();
    for i in 0..n as u64 {
        cbf.insert(&i);
    }
    for i in 0..(n / 2) as u64 {
        cbf.remove(&i);
    }
    let still = (0..(n / 2) as u64).filter(|i| cbf.contains(i)).count();
    r.row(
        "counting-bloom(del 50%)",
        &[("deleted_still_visible", f(still as f64 / (n / 2) as f64)), ("bits/item", "12".into())],
    );
    let mut cf = CuckooFilter::with_capacity(n);
    let (_, secs) = timed(|| {
        for i in 0..n as u64 {
            cf.insert(&i);
        }
    });
    let fp = ((n as u64)..(n as u64 + 200_000)).filter(|i| cf.contains(i)).count();
    r.row(
        "cuckoo(16-bit fp)",
        &[
            ("measured_fpp", f(fp as f64 / 200_000.0)),
            ("load", f(cf.load())),
            ("bits/item", f(sa_core::traits::MembershipFilter::bits(&cf) as f64 / n as f64)),
            ("Mops/s", f(mps(n, secs))),
        ],
    );
}

// ---------------------------------------------------------------- T1.3
fn t1_3_correlation(r: &mut Recorder) {
    use sa_timeseries::correlation::*;
    r.section("T1.3", "Correlation (fraud detection) — find the correlated pair");
    let d = 20usize;
    let w = 512usize;
    let mut cm = CorrelationMatrix::new(d, w).unwrap();
    let mut rng = SplitMix64::new(9);
    let n = 20_000;
    let (_, secs) = timed(|| {
        for t in 0..n {
            let base = (t as f64 / 9.0).sin();
            let mut tick = vec![0.0; d];
            for (j, v) in tick.iter_mut().enumerate() {
                *v = rng.next_f64() + j as f64;
            }
            tick[4] = base + 0.1 * rng.next_f64(); // the colluding pair
            tick[13] = base + 0.1 * rng.next_f64();
            cm.push(tick);
        }
    });
    let pairs = cm.correlated_pairs(0.8);
    r.row(
        &format!("matrix({d} streams, w={w})"),
        &[
            ("pairs_found", pairs.len().to_string()),
            ("top_pair", format!("({},{})", pairs[0].0, pairs[0].1)),
            ("r", f(pairs[0].2)),
            ("Mticks/s", f(mps(n, secs))),
        ],
    );
    let mut lc = LaggedCorrelation::new(600, 30).unwrap();
    let mut hist = std::collections::VecDeque::new();
    for t in 0..10_000u64 {
        let x = (t as f64 / 11.0).sin() + 0.05 * rng.next_f64();
        hist.push_back(x);
        let y = if hist.len() > 12 { hist[hist.len() - 13] } else { 0.0 };
        lc.push(x, y);
    }
    let (lag, rho) = lc.best_lag().unwrap();
    r.row("lagged-correlation(true lag 12)", &[("found_lag", lag.to_string()), ("r", f(rho))]);
}

// ---------------------------------------------------------------- T1.4
fn t1_4_cardinality(r: &mut Recorder) {
    use sa_sketches::cardinality::*;
    r.section("T1.4", "Cardinality (site audience) — error vs memory");
    let n = 1_000_000u64;
    let hashes: Vec<u64> = (0..n).map(|i| sa_core::hash::mix64(i ^ 0xFEED)).collect();
    let run = |est: &mut dyn CardinalityEstimator| -> (f64, usize, f64) {
        let (_, secs) = timed(|| {
            for &h in &hashes {
                est.insert_hash(h);
            }
        });
        (relative_error(est.estimate(), n as f64), est.size_bytes(), mps(n as usize, secs))
    };
    let mut lc = LinearCounting::new(1 << 20).unwrap();
    let (e, b, t) = run(&mut lc);
    r.row(
        "linear-counting(1M bits)",
        &[("rel_err", f(e)), ("bytes", b.to_string()), ("Mops/s", f(t))],
    );
    let mut fm = Pcsa::new(1024).unwrap();
    let (e, b, t) = run(&mut fm);
    r.row("FM-PCSA(m=1024)", &[("rel_err", f(e)), ("bytes", b.to_string()), ("Mops/s", f(t))]);
    let mut ll = LogLog::new(12).unwrap();
    let (e, b, t) = run(&mut ll);
    r.row("loglog(p=12)", &[("rel_err", f(e)), ("bytes", b.to_string()), ("Mops/s", f(t))]);
    let mut hll = HyperLogLog::new(12).unwrap();
    let (e, b, t) = run(&mut hll);
    r.row("hyperloglog(p=12)", &[("rel_err", f(e)), ("bytes", b.to_string()), ("Mops/s", f(t))]);
    let mut kmv = Kmv::new(4096).unwrap();
    let (e, b, t) = run(&mut kmv);
    r.row("kmv(k=4096)", &[("rel_err", f(e)), ("bytes", b.to_string()), ("Mops/s", f(t))]);
    // Ablation: small-range correction.
    for small_n in [500u64, 5_000] {
        let mut raw = HyperLogLog::new(12).unwrap().without_small_range_correction();
        let mut cor = HyperLogLog::new(12).unwrap();
        for i in 0..small_n {
            raw.insert(&i);
            cor.insert(&i);
        }
        r.row(
            &format!("hll p=12 @n={small_n} (ablation)"),
            &[
                ("raw_err", f(relative_error(raw.estimate(), small_n as f64))),
                ("corrected_err", f(relative_error(cor.estimate(), small_n as f64))),
            ],
        );
    }
    // Sliding window cardinality.
    let mut sh = SlidingHyperLogLog::new(12, 100_000).unwrap();
    for t in 0..500_000u64 {
        sh.insert_at(&(t % 80_000), t);
    }
    r.row(
        "sliding-hll(w=100k)",
        &[
            ("rel_err", f(relative_error(sh.estimate_window(100_000), 80_000.0))),
            ("stored_entries", sh.stored_entries().to_string()),
        ],
    );
}

// ---------------------------------------------------------------- T1.5
fn t1_5_quantiles(r: &mut Recorder) {
    use sa_sketches::quantiles::*;
    r.section("T1.5", "Quantiles (network analysis) — rank error vs space");
    let n = 500_000usize;
    let mut rng = SplitMix64::new(11);
    let values: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e6).collect();
    let check = |q: &dyn QuantileSketch, phi: f64| -> f64 {
        let est = q.query(phi).unwrap();
        (exact_rank(&values, est) as f64 - phi * n as f64).abs() / n as f64
    };
    let mut gk = GkSketch::new(0.001).unwrap();
    let (_, secs) = timed(|| {
        for &v in &values {
            gk.insert(v);
        }
    });
    r.row(
        "GK(ε=0.001)",
        &[
            ("p50_rank_err", f(check(&gk, 0.5))),
            ("p99_rank_err", f(check(&gk, 0.99))),
            ("tuples", gk.tuple_count().to_string()),
            ("Mops/s", f(mps(n, secs))),
        ],
    );
    let mut ckms = CkmsSketch::new(&[(0.5, 0.01), (0.99, 0.001), (0.999, 0.0002)]).unwrap();
    let (_, secs) = timed(|| {
        for &v in &values {
            ckms.insert(v);
        }
    });
    let entries = ckms.entry_count();
    r.row(
        "CKMS(targeted tails)",
        &[
            ("p99_rank_err", f(check(&ckms, 0.99))),
            ("p999_rank_err", f(check(&ckms, 0.999))),
            ("entries", entries.to_string()),
            ("Mops/s", f(mps(n, secs))),
        ],
    );
    let mut fr = FrugalQuantile::new(0.5, FrugalMode::TwoUnit).unwrap().with_seed(3);
    let (_, secs) = timed(|| {
        for &v in &values {
            fr.insert(v);
        }
    });
    r.row(
        "frugal-2U(median)",
        &[
            ("p50_rank_err", f(check(&fr, 0.5))),
            ("words_of_state", "2".into()),
            ("Mops/s", f(mps(n, secs))),
        ],
    );
    let mut sq = SampledQuantile::new(1_000).unwrap().with_seed(4);
    for &v in &values {
        sq.insert(v);
    }
    r.row(
        "reservoir-baseline(k=1000)",
        &[("p50_rank_err", f(check(&sq, 0.5))), ("p99_rank_err", f(check(&sq, 0.99)))],
    );
}

// ---------------------------------------------------------------- T1.6
fn t1_6_moments(r: &mut Recorder) {
    use sa_sketches::frequency::CountSketch;
    use sa_sketches::moments::*;
    r.section("T1.6", "Moments (databases) — F2 self-join size");
    for s in [0.8, 1.1] {
        let mut g = ZipfStream::new(100_000, s, 21);
        let items = g.take_vec(500_000);
        let truth = exact_moment(&items, 2);
        let mut ams = AmsF2::new(256, 5).unwrap();
        let (_, secs) = timed(|| {
            for &it in &items {
                ams.add(&it, 1);
            }
        });
        r.row(
            &format!("AMS tug-of-war (zipf s={s})"),
            &[
                ("rel_err", f(relative_error(ams.estimate(), truth))),
                ("counters", "1280".into()),
                ("Mops/s", f(mps(items.len(), secs))),
            ],
        );
        let mut cs = CountSketch::new(4096, 5).unwrap();
        let (_, secs) = timed(|| {
            for &it in &items {
                cs.add(&it, 1);
            }
        });
        r.row(
            &format!("fast-AMS/CountSketch (zipf s={s})"),
            &[
                ("rel_err", f(relative_error(cs.f2_estimate(), truth))),
                ("Mops/s", f(mps(items.len(), secs))),
            ],
        );
        let mut fk = AmsFk::new(3, 3_000).unwrap().with_seed(5);
        for &it in &items {
            fk.insert(&it);
        }
        let t3 = exact_moment(&items, 3);
        r.row(
            &format!("AMS-sampling F3 (zipf s={s})"),
            &[("rel_err", f(relative_error(fk.estimate(), t3))), ("trackers", "3000".into())],
        );
    }
}

// ---------------------------------------------------------------- T1.7
fn t1_7_frequent(r: &mut Recorder) {
    use sa_sketches::heavy_hitters::*;
    r.section("T1.7", "Frequent elements (trending hashtags) — recall/precision");
    let mut g = ZipfStream::new(1_000_000, 1.1, 31);
    let items = g.take_vec(1_000_000);
    let theta = 0.001;
    let truth: std::collections::HashSet<u64> =
        exact_heavy_hitters(&items, theta).into_iter().map(|(i, _)| i).collect();
    let counts = exact_counts(&items);
    let eval = |found: Vec<u64>| -> (f64, f64) {
        let fs: std::collections::HashSet<u64> = found.into_iter().collect();
        let recall =
            truth.iter().filter(|i| fs.contains(i)).count() as f64 / truth.len().max(1) as f64;
        let floor = (theta - 0.0002) * items.len() as f64;
        let precise =
            fs.iter().filter(|i| counts[i] as f64 >= floor).count() as f64 / fs.len().max(1) as f64;
        (recall, precise)
    };
    let mut mg = MisraGries::new(2_000).unwrap();
    let (_, secs) = timed(|| {
        for &it in &items {
            mg.insert(it);
        }
    });
    let (rec, prec) = eval(mg.heavy_hitters(theta).into_iter().map(|h| h.item).collect());
    r.row(
        "misra-gries(k=2000)",
        &[("recall", f(rec)), ("precision", f(prec)), ("Mops/s", f(mps(items.len(), secs)))],
    );
    let mut ss = SpaceSaving::new(2_000).unwrap();
    let (_, secs) = timed(|| {
        for &it in &items {
            ss.insert(it);
        }
    });
    let (rec, prec) = eval(ss.heavy_hitters(theta).into_iter().map(|h| h.item).collect());
    r.row(
        "space-saving(k=2000)",
        &[("recall", f(rec)), ("precision", f(prec)), ("Mops/s", f(mps(items.len(), secs)))],
    );
    let mut lcount = LossyCounting::new(theta / 10.0).unwrap();
    let (_, secs) = timed(|| {
        for &it in &items {
            lcount.insert(it);
        }
    });
    let (rec, prec) = eval(lcount.frequent_items(theta).into_iter().map(|h| h.item).collect());
    r.row(
        "lossy-counting(ε=θ/10)",
        &[
            ("recall", f(rec)),
            ("precision", f(prec)),
            ("entries", lcount.len().to_string()),
            ("Mops/s", f(mps(items.len(), secs))),
        ],
    );
    let mut st = StickySampling::new(theta, theta / 10.0, 0.01).unwrap().with_seed(6);
    for &it in &items {
        st.insert(it);
    }
    let (rec, prec) = eval(st.frequent_items().into_iter().map(|h| h.item).collect());
    r.row(
        "sticky-sampling",
        &[("recall", f(rec)), ("precision", f(prec)), ("entries", st.len().to_string())],
    );
    // Ablation: CMS plain vs conservative point error on the top 100.
    use sa_sketches::frequency::CountMinSketch;
    let mut plain = CountMinSketch::new(4096, 4).unwrap();
    let mut cons = CountMinSketch::new(4096, 4).unwrap().conservative();
    for &it in &items {
        plain.add(&it, 1);
        cons.add(&it, 1);
    }
    let top: Vec<(u64, u64)> = exact_top_k(&items, 100);
    let err = |cms: &CountMinSketch| -> f64 {
        top.iter().map(|&(i, c)| (cms.estimate(&i) - c as i64) as f64).sum::<f64>() / 100.0
    };
    r.row(
        "CMS ablation (top-100 over-count)",
        &[("plain", f(err(&plain))), ("conservative", f(err(&cons)))],
    );
}

// ---------------------------------------------------------------- T1.8
fn t1_8_inversions(r: &mut Recorder) {
    use sa_sequences::inversions::*;
    r.section("T1.8", "Counting inversions (sortedness) — exact vs sampled");
    let n = 100_000usize;
    for d in [10usize, 1_000, 50_000] {
        let v = permutation_with_displacement(n, d, 41);
        let mut ex = ExactInversions::new(n).unwrap();
        let (_, secs) = timed(|| {
            for &x in &v {
                ex.push(x);
            }
        });
        let mut sa = SampledInversions::new(256).unwrap().with_seed(7);
        for &x in &v {
            sa.push(x);
        }
        r.row(
            &format!("displacement d={d}"),
            &[
                ("exact", ex.total().to_string()),
                ("sortedness", f(ex.sortedness())),
                ("sampled_rel_err", f(relative_error(sa.estimate(), ex.total() as f64))),
                ("exact_Mops/s", f(mps(n, secs))),
            ],
        );
    }
}

// ---------------------------------------------------------------- T1.9
fn t1_9_subsequences(r: &mut Recorder) {
    use sa_sequences::*;
    r.section("T1.9", "Subsequences (traffic analysis) — LIS / LCS");
    let n = 200_000usize;
    for d in [5usize, 5_000] {
        let v = permutation_with_displacement(n, d, 51);
        let mut lis = PatienceLis::new();
        let (_, secs) = timed(|| {
            for &x in &v {
                lis.push(x as i64);
            }
        });
        let mut bounded = BoundedLis::new(1_000).unwrap();
        for &x in &v {
            bounded.push(x as i64);
        }
        r.row(
            &format!("LIS (displacement {d})"),
            &[
                ("lis_len", lis.lis_len().to_string()),
                ("space", lis.space().to_string()),
                ("bounded_k1000_lower", bounded.lis_lower_bound().to_string()),
                ("Mops/s", f(mps(n, secs))),
            ],
        );
    }
    let mut rng = SplitMix64::new(12);
    let query: Vec<u8> = (0..64).map(|_| rng.next_below(4) as u8).collect();
    let mut lcs = StreamingLcs::new(query).unwrap();
    let (_, secs) = timed(|| {
        for _ in 0..200_000 {
            lcs.push(rng.next_below(4) as u8);
        }
    });
    r.row(
        "LCS vs 64-symbol query",
        &[
            ("similarity", f(lcs.similarity())),
            ("space", "O(|query|)".into()),
            ("Mops/s", f(mps(200_000, secs))),
        ],
    );
}

// --------------------------------------------------------------- T1.10
fn t1_10_paths(r: &mut Recorder) {
    use sa_graph::DynamicPaths;
    r.section("T1.10", "Path analysis (web graph) — length-≤ℓ queries in a dynamic graph");
    let n = 20_000usize;
    let mut gen = EdgeStreamGen::new(n, 61);
    let edges = gen.preferential_attachment(3);
    let mut g = DynamicPaths::new(n).unwrap();
    let (_, build) = timed(|| {
        for &(u, v) in &edges {
            g.insert_edge(u, v);
        }
    });
    let mut rng = SplitMix64::new(13);
    for l in [2u32, 4, 6] {
        let queries = 2_000;
        let (hits, secs) = timed(|| {
            let mut hits = 0;
            for _ in 0..queries {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                if g.path_within(u, v, l) {
                    hits += 1;
                }
            }
            hits
        });
        r.row(
            &format!("ℓ={l}"),
            &[
                ("reachable_frac", f(hits as f64 / queries as f64)),
                ("queries/s", sa_bench::f(queries as f64 / secs)),
            ],
        );
    }
    // Deletions change answers.
    let (u0, v0) = edges[0];
    let before = g.path_within(u0, v0, 1);
    g.delete_edge(u0, v0);
    let after = g.path_within(u0, v0, 1);
    r.row(
        "dynamic deletion",
        &[
            ("edge_count", g.edge_count().to_string()),
            ("direct_before/after", format!("{before}/{after}")),
            ("build_Medges/s", f(mps(edges.len(), build))),
        ],
    );
}

// --------------------------------------------------------------- T1.11
fn t1_11_anomaly(r: &mut Recorder) {
    use sa_timeseries::anomaly::*;
    r.section("T1.11", "Anomaly detection (sensor networks) — precision/recall");
    let make = |seed: u64| -> Vec<(f64, bool)> {
        let mut g =
            SensorSeries::new(seed).with_noise(0.5).with_amplitude(0.5).with_anomalies(0.01, 10.0);
        g.take_vec(20_000).into_iter().map(|p| (p.value, p.is_anomaly)).collect()
    };
    let pts = make(71);
    let mut rz = RobustZScore::new(64, 5.0).unwrap();
    let ((p, rec), secs) = timed(|| evaluate(&pts, |x| rz.observe(x)));
    r.row(
        "robust-zscore(MAD, w=64)",
        &[("precision", f(p)), ("recall", f(rec)), ("Mops/s", f(mps(pts.len(), secs)))],
    );
    let mut dd = DistanceDetector::new(128, 2.0, 3).unwrap();
    let (p, rec) = evaluate(&pts, |x| dd.observe(x));
    r.row("distance-based(r=2, k=3)", &[("precision", f(p)), ("recall", f(rec))]);
    // CUSUM on a level-shift scenario (spikes are not its job).
    let mut rng = SplitMix64::new(14);
    let mut cusum = Cusum::new(0.5, 8.0, 200).unwrap();
    let mut detected_at = None;
    for i in 0..4_000 {
        let x = if i < 2_000 { 0.0 } else { 2.0 } + (rng.next_f64() - 0.5) * 2.0;
        if cusum.observe(x).is_anomaly && i >= 2_000 && detected_at.is_none() {
            detected_at = Some(i - 2_000);
        }
    }
    r.row(
        "cusum(level shift +2σ)",
        &[
            ("detection_delay", format!("{:?}", detected_at.unwrap_or(9999))),
            ("false_alarms_pre_shift", "0".into()),
        ],
    );
    let mut sd = SeasonalDetector::new(64, 0.3, 5.0).unwrap();
    let mut g =
        SensorSeries::new(72).with_noise(0.3).with_amplitude(4.0).with_anomalies(0.01, 12.0);
    let seasonal_pts: Vec<(f64, bool)> =
        g.take_vec(20_000).into_iter().map(|p| (p.value, p.is_anomaly)).collect();
    let (p, rec) = evaluate(&seasonal_pts, |x| sd.observe(x));
    r.row("seasonal(period=64, strong season)", &[("precision", f(p)), ("recall", f(rec))]);
}

// --------------------------------------------------------------- T1.12
fn t1_12_patterns(r: &mut Recorder) {
    use sa_timeseries::patterns::*;
    r.section("T1.12", "Temporal patterns (traffic analysis) — motifs & shape queries");
    let mut rng = SplitMix64::new(15);
    let mut md = MotifDetector::new(4).unwrap();
    for i in 0..200_000u64 {
        let sym = if i % 50 < 4 { (i % 50) as u8 + 10 } else { rng.next_below(8) as u8 };
        md.push(sym);
    }
    let top = md.top_motifs(1);
    r.row(
        "motif-detector(4-grams)",
        &[
            ("top_motif_count", top[0].1.to_string()),
            ("planted_occurrences", (200_000u64 / 50).to_string()),
            ("distinct_patterns", md.distinct_patterns().to_string()),
        ],
    );
    let query: Vec<f64> =
        (0..32).map(|i| (2.0 * std::f64::consts::PI * i as f64 / 32.0).sin()).collect();
    let mut m = SubsequenceMatcher::new(&query, 0.35).unwrap();
    let mut found = 0;
    let n = 100_000;
    let (_, secs) = timed(|| {
        for i in 0..n {
            let x =
                if (i / 1000) % 10 == 9 { 3.0 * query[i % 32] } else { rng.next_f64() * 2.0 - 1.0 };
            if m.push(x).is_some() {
                found += 1;
            }
        }
    });
    r.row(
        "shape-matcher(sine query)",
        &[("matches", found.to_string()), ("Mops/s", f(mps(n, secs)))],
    );
    let mut sax = SaxDiscretizer::new(8, 5).unwrap();
    let mut symbols = 0;
    for _ in 0..10_000 {
        if sax.push(rng.next_f64() * 2.0 - 1.0).is_some() {
            symbols += 1;
        }
    }
    r.row("sax(8:1 PAA, |Σ|=5)", &[("symbols_from_10k", symbols.to_string())]);
}

// --------------------------------------------------------------- T1.13
fn t1_13_prediction(r: &mut Recorder) {
    use sa_timeseries::predict::*;
    r.section("T1.13", "Data prediction (sensor gaps) — imputation RMSE");
    // Flat-level sensor (the random-walk Kalman's model); seasonal
    // imputation is the CV/RLS models' job below.
    let mut g = SensorSeries::new(81).with_noise(0.3).with_amplitude(0.0).with_dropout(0.15);
    let pts = g.take_vec(30_000);
    let missing = pts.iter().filter(|p| p.dropped).count();
    let mut kf = KalmanFilter1D::new(0.05, 0.09).unwrap();
    let (mut se_kf, mut se_last, mut last_seen) = (0.0, 0.0, 0.0);
    for p in &pts {
        if p.dropped {
            se_kf += (kf.predict() - p.clean).powi(2);
            se_last += (last_seen - p.clean).powi(2);
            kf.skip();
        } else {
            kf.update(p.value);
            last_seen = p.value;
        }
    }
    r.row(
        &format!("kalman-1D vs last-value ({missing} gaps)"),
        &[
            ("kalman_rmse", f((se_kf / missing as f64).sqrt())),
            ("last_value_rmse", f((se_last / missing as f64).sqrt())),
        ],
    );
    let series = ar1_series(30_000, 0.9, 1.0, 82);
    let mut rls = RlsAr::new(2, 0.999).unwrap();
    let (mut se_rls, mut se_naive, mut prev) = (0.0, 0.0, 0.0);
    for (i, &x) in series.iter().enumerate() {
        if i > 500 {
            se_rls += (rls.predict() - x).powi(2);
            se_naive += (prev - x).powi(2);
        }
        rls.update(x);
        prev = x;
    }
    r.row(
        "RLS-AR(2) one-step (AR1 φ=0.9)",
        &[
            ("rls_mse", f(se_rls / 29_500.0)),
            ("naive_mse", f(se_naive / 29_500.0)),
            ("learned_w", format!("{:.2?}", rls.weights())),
        ],
    );
    let mut cv = KalmanFilterCV::new(1e-3, 1.0).unwrap();
    let mut rng = SplitMix64::new(16);
    for t in 0..5_000 {
        cv.update(0.5 * t as f64 + rng.next_f64());
    }
    r.row("kalman-CV (ramp 0.5/step)", &[("velocity_est", f(cv.velocity()))]);
}

// --------------------------------------------------------------- T1.14
fn t1_14_clustering(r: &mut Recorder) {
    use sa_clustering::*;
    r.section("T1.14", "Clustering (medical imaging) — SSE vs batch k-means");
    let k = 5;
    let mut g = GaussianMixtureGen::new(k, 4, 100.0, 2.0, 91);
    let pts: Vec<Vec<f64>> = g.take_vec(30_000).into_iter().map(|p| p.coords).collect();
    let w = vec![1.0; pts.len()];
    let mut rng = SplitMix64::new(17);
    let (batch, secs_b) = timed(|| kmeans::weighted_kmeans(&pts, &w, k, &mut rng).unwrap());
    let batch_sse = sse(&pts, &batch);
    r.row("batch k-means++ (reference)", &[("sse", f(batch_sse)), ("sec", f(secs_b))]);
    let mut skm = StreamKMedian::new(k, 400).unwrap();
    let (_, secs) = timed(|| {
        for p in &pts {
            skm.push(p.clone());
        }
    });
    let sc = skm.centers().unwrap();
    r.row(
        "STREAM k-median(chunk=400)",
        &[
            ("sse_ratio", f(sse(&pts, &sc) / batch_sse)),
            ("retained", skm.retained().to_string()),
            ("Mops/s", f(mps(pts.len(), secs))),
        ],
    );
    let mut ok = OnlineKMeans::new(k, 4).unwrap();
    let (_, secs) = timed(|| {
        for p in &pts {
            ok.push(p);
        }
    });
    r.row(
        "online k-means (MacQueen)",
        &[
            ("sse_ratio", f(sse(&pts, ok.centers()) / batch_sse)),
            ("Mops/s", f(mps(pts.len(), secs))),
        ],
    );
    let mut mc = MicroClusters::new(60, 3.0, 0.0).unwrap();
    let (_, secs) = timed(|| {
        for p in &pts {
            mc.push(p);
        }
    });
    let cc = mc.macro_clusters(k).unwrap();
    r.row(
        "micro-clusters(q=60)",
        &[
            ("sse_ratio", f(sse(&pts, &cc) / batch_sse)),
            ("micro", mc.micro().len().to_string()),
            ("Mops/s", f(mps(pts.len(), secs))),
        ],
    );
}

// --------------------------------------------------------------- T1.15
fn t1_15_graph(r: &mut Recorder) {
    use sa_graph::*;
    r.section("T1.15", "Graph analysis (web graph) — semi-streaming suite");
    let n = 50_000usize;
    let mut gen = EdgeStreamGen::new(n, 101);
    let edges = gen.preferential_attachment(4);
    let m = edges.len();
    let mut conn = StreamingConnectivity::new(n).unwrap();
    let (_, secs) = timed(|| {
        for &(u, v) in &edges {
            conn.add_edge(u, v);
        }
    });
    r.row(
        "connectivity(union-find)",
        &[("components", conn.components().to_string()), ("Medges/s", f(mps(m, secs)))],
    );
    let mut mat = StreamingMatching::new(n).unwrap();
    let (_, secs) = timed(|| {
        for &(u, v) in &edges {
            mat.add_edge(u, v);
        }
    });
    r.row(
        "greedy matching (2-approx)",
        &[
            ("matching", mat.size().to_string()),
            ("vertex_cover", mat.vertex_cover().len().to_string()),
            ("Medges/s", f(mps(m, secs))),
        ],
    );
    let mut is = IndependentSet::new(n).unwrap();
    for &(u, v) in &edges {
        is.add_edge(u, v);
    }
    r.row("greedy independent set", &[("size", is.size().to_string())]);
    let mut gen2 = EdgeStreamGen::new(2_000, 102);
    let tri_edges = gen2.planted_clique(40, 20_000);
    let truth = exact_triangles(&tri_edges) as f64;
    let mut tc = TriangleCounter::new(8_000).unwrap().with_seed(9);
    let (_, secs) = timed(|| {
        for &(u, v) in &tri_edges {
            tc.add_edge(u, v);
        }
    });
    r.row(
        "triangles(reservoir 8k of 20.8k)",
        &[
            ("rel_err", f(relative_error(tc.estimate(), truth))),
            ("Medges/s", f(mps(tri_edges.len(), secs))),
        ],
    );
    let mut sp = GreedySpanner::new(5_000, 3).unwrap();
    let mut gen3 = EdgeStreamGen::new(5_000, 103);
    let dense = gen3.uniform_edges(100_000);
    for &(u, v) in &dense {
        sp.add_edge(u, v);
    }
    r.row("3-spanner", &[("kept_edges", sp.size().to_string()), ("of", dense.len().to_string())]);
    // Min-cut via sparsification: two K40s + 40 cross edges.
    let mut barbell = Vec::new();
    for a in 0..40u32 {
        for b in (a + 1)..40 {
            barbell.push((a, b));
            barbell.push((a + 40, b + 40));
        }
    }
    for i in 0..40u32 {
        barbell.push((i, 40 + i));
    }
    let mut spf = Sparsifier::new(80, 0.5).unwrap().with_seed(10);
    for &(u, v) in &barbell {
        spf.add_edge(u, v);
    }
    let cut = min_cut(80, spf.edges(), 200, 11) as f64 * spf.weight();
    r.row("min-cut on ½-sparsifier (true 40)", &[("estimate", f(cut))]);
}

// --------------------------------------------------------------- T1.16
fn t1_16_basic_counting(r: &mut Recorder) {
    use sa_windows::Dgim;
    r.section("T1.16", "Basic counting (popularity) — DGIM error vs space");
    let n = 100_000u64;
    let window = 10_000u64;
    let mut rng = SplitMix64::new(18);
    let bits: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.4)).collect();
    let exact: u64 = bits[bits.len() - window as usize..].iter().filter(|&&b| b).count() as u64;
    for rr in [2usize, 4, 11, 51] {
        let mut d = Dgim::with_r(window, rr).unwrap();
        let (_, secs) = timed(|| {
            for &b in &bits {
                d.push(b);
            }
        });
        r.row(
            &format!("DGIM r={rr} (ε≤{})", f(d.error_bound())),
            &[
                ("rel_err", f(relative_error(d.estimate() as f64, exact as f64))),
                ("buckets", d.bucket_count().to_string()),
                ("Mops/s", f(mps(n as usize, secs))),
            ],
        );
    }
}

// --------------------------------------------------------------- T1.17
fn t1_17_significant(r: &mut Recorder) {
    use sa_windows::{Dgim, SignificantOneCounter};
    r.section("T1.17", "Significant one counting (traffic accounting) — space vs DGIM");
    let n = 1_000_000u64;
    let mut rng = SplitMix64::new(19);
    for density in [0.5, 0.01] {
        let mut sig = SignificantOneCounter::new(n, 0.2, 0.05).unwrap();
        let mut dgim = Dgim::new(n, 0.05).unwrap();
        let mut exact = 0u64;
        for _ in 0..n {
            let b = rng.bernoulli(density);
            exact += b as u64;
            sig.push(b);
            dgim.push(b);
        }
        r.row(
            &format!("density {density} (θ=0.2, ε=0.05)"),
            &[
                ("significant", sig.is_significant().to_string()),
                ("sig_rel_err", f(relative_error(sig.estimate() as f64, exact as f64))),
                ("sig_buckets", sig.bucket_count().to_string()),
                ("dgim_buckets", dgim.bucket_count().to_string()),
            ],
        );
    }
}

// ------------------------------------------------------------------ T2
/// The nine-task pipeline T2, T2.B and T2.D measure: a spout of `n`
/// words over 50 keys, four shuffle-grouped echo bolts (`stage1`), then
/// four fields-grouped echo bolts (`sink`).
fn echo_topology(n: usize) -> sa_platform::TopologyBuilder {
    use sa_platform::topology::{vec_spout, Bolt};
    use sa_platform::{tuple_of, OutputCollector, TopologyBuilder, Tuple};
    let tuples: Vec<Tuple> = (0..n).map(|i| tuple_of([format!("w{}", i % 50)])).collect();
    let mut tb = TopologyBuilder::new();
    tb.set_spout("src", vec![vec_spout(tuples)]);
    let echo = || -> Vec<Box<dyn Bolt>> {
        (0..4)
            .map(|_| {
                Box::new(|t: &Tuple, o: &mut OutputCollector| o.emit(t.clone())) as Box<dyn Bolt>
            })
            .collect()
    };
    tb.set_bolt("stage1", echo()).shuffle("src");
    tb.set_bolt("sink", echo()).fields("stage1", vec![0]);
    tb
}

fn t2_platform(r: &mut Recorder) {
    use sa_platform::*;
    use std::time::Duration;
    r.section("T2", "Streaming platforms — semantics × task→thread driver × failures");
    let n = 100_000;
    // Heron-style = a dedicated thread per task over bounded inboxes;
    // the Storm-style arm multiplexes all nine tasks over one shared
    // worker and unbounded inboxes.
    let heron = Scheduling::ThreadPerTask;
    let storm = Scheduling::WorkStealing { workers: 1 };
    for (label, scheduling, semantics, drop) in [
        ("heron-style, at-most-once", heron, Semantics::AtMostOnce, 0.0),
        ("heron-style, at-least-once", heron, Semantics::AtLeastOnce, 0.0),
        (
            "shared pool, 1 worker, unbounded inboxes, at-least-once",
            storm,
            Semantics::AtLeastOnce,
            0.0,
        ),
        ("heron-style, at-least-once, 2% loss", heron, Semantics::AtLeastOnce, 0.02),
    ] {
        let tb = echo_topology(n);
        let (res, secs) = timed(|| {
            run_topology(
                tb,
                ExecutorConfig {
                    scheduling,
                    semantics,
                    faults: FaultPlan::default().drop_on("", drop),
                    ack_timeout: Duration::from_millis(400),
                    shutdown_timeout: Duration::from_secs(30),
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let delivered = res.outputs.get("sink").map_or(0, Vec::len);
        let snap = res.metrics.snapshot();
        r.row(
            label,
            &[
                ("delivered", format!("{delivered}/{n}")),
                ("acked", snap.acked_roots.to_string()),
                ("replayed", snap.replayed_roots.to_string()),
                ("lost_msgs", snap.dropped_links.to_string()),
                ("Ktuples/s", sa_bench::f(n as f64 / secs / 1e3)),
                ("clean", res.clean_shutdown.to_string()),
            ],
        );
    }
}

// ---------------------------------------------------------------- T2.B
/// Tentpole ablation: link batch size × delivery semantics on the t18
/// word-count topology. Shows what batching buys (channel + acker
/// synchronisation amortised over the batch) and what each guarantee
/// costs on top.
fn t2_batch_ablation(r: &mut Recorder) {
    use sa_platform::*;
    use std::time::Duration;
    r.section("T2.B", "Batching ablation — batch_size × semantics, word-count throughput");
    let n = 100_000;
    for (sem_label, semantics) in
        [("at-most-once", Semantics::AtMostOnce), ("at-least-once", Semantics::AtLeastOnce)]
    {
        for batch_size in [1usize, 8, 64, 256] {
            let tb = echo_topology(n);
            let (res, secs) = timed(|| {
                run_topology(
                    tb,
                    ExecutorConfig {
                        semantics,
                        batch_size,
                        ack_timeout: Duration::from_secs(5),
                        shutdown_timeout: Duration::from_secs(30),
                        ..Default::default()
                    },
                )
                .unwrap()
            });
            let delivered = res.outputs.get("sink").map_or(0, Vec::len);
            r.row(
                &format!("{sem_label}, batch={batch_size}"),
                &[
                    ("delivered", format!("{delivered}/{n}")),
                    ("Ktuples/s", sa_bench::f(n as f64 / secs / 1e3)),
                    ("clean", res.clean_shutdown.to_string()),
                ],
            );
        }
    }
}

// ---------------------------------------------------------------- T2.C
fn t2c_recovery(r: &mut Recorder) {
    use sa_core::Synopsis;
    use sa_platform::operator::{replay_offset, LogSpout, OperatorConfig, SynopsisBolt};
    use sa_platform::topology::{Bolt, Spout};
    use sa_platform::tuple::tuple_of;
    use sa_platform::{
        run_topology, CheckpointStore, ExecutorConfig, Log, Record, Semantics, TopologyBuilder,
        Tuple,
    };
    use sa_sketches::cardinality::HyperLogLog;
    use sa_sketches::frequency::CountMinSketch;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    r.section(
        "T2.C",
        "Recovery — checkpoint interval vs recovery time & post-recovery accuracy (exactly-once)",
    );

    let n = 200_000u64;
    let kill_at = n / 2;
    let log = Log::new(1).unwrap();
    let mut gen = ZipfStream::new(50_000, 1.1, 42);
    let mut items: Vec<String> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = format!("u{}", gen.next_id());
        log.append(&key, Vec::new());
        items.push(key);
    }
    let distinct = exact_distinct(&items) as f64;
    let truth = exact_counts(&items);
    let mut top: Vec<(&String, &u64)> = truth.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    top.truncate(100);

    // Uninterrupted in-process references.
    let mut hll_direct = HyperLogLog::new(12).unwrap();
    let mut cms_direct = CountMinSketch::new(2048, 4).unwrap();
    for key in &items {
        hll_direct.insert(key);
        cms_direct.add(key, 1);
    }
    let top_err = |cms: &CountMinSketch| -> f64 {
        top.iter().map(|(k, &c)| (cms.estimate(*k) - c as i64).abs() as f64).sum::<f64>()
            / top.len() as f64
    };

    /// Crash a `SynopsisBolt<S>` topology at `kill_at` emissions, then
    /// restart it from checkpoint + log replay. Returns (recovery wall
    /// time, records replayed, final snapshot).
    fn run_pair<S, F>(
        log: &Log,
        every: u64,
        kill_at: u64,
        make: impl Fn() -> S,
        update: F,
    ) -> (f64, u64, Vec<u8>)
    where
        S: Synopsis + Send + 'static,
        F: Fn(&Tuple, &mut S) + Clone + Send + 'static,
    {
        let store = CheckpointStore::new();
        let build = |from: u64, plan: Option<(Arc<AtomicU64>, u64, Arc<AtomicBool>)>| {
            let mut tb = TopologyBuilder::new();
            let spout = LogSpout::new(log, 0, from, 0, move |rec: &Record| {
                if let Some((emitted, at, kill)) = &plan {
                    if emitted.fetch_add(1, Ordering::SeqCst) + 1 == *at {
                        kill.store(true, Ordering::SeqCst);
                    }
                }
                tuple_of([rec.key.as_str()])
            });
            tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
            let u = update.clone();
            let bolt = SynopsisBolt::with_config(
                "op/0",
                &store,
                make(),
                move |t: &Tuple, s: &mut S| u(t, s),
                OperatorConfig { checkpoint_every: every, ..Default::default() },
            )
            .unwrap();
            tb.set_bolt("op", vec![Box::new(bolt) as Box<dyn Bolt>]).global("log");
            tb
        };
        let kill = Arc::new(AtomicBool::new(false));
        let plan = Some((Arc::new(AtomicU64::new(0)), kill_at, kill.clone()));
        let crashed = run_topology(
            build(0, plan),
            ExecutorConfig { kill: Some(kill), seed: 5, ..Default::default() },
        )
        .unwrap();
        assert!(!crashed.clean_shutdown, "kill switch must interrupt the run");
        let from = replay_offset(&store, &["op/0"]);
        let replayed = log.end_offset(0) - from;
        let (res, secs) = timed(|| {
            run_topology(
                build(from, None),
                ExecutorConfig { semantics: Semantics::AtLeastOnce, seed: 6, ..Default::default() },
            )
            .unwrap()
        });
        let snap = res.outputs["op"][0].get(1).unwrap().as_bytes().unwrap().to_vec();
        (secs, replayed, snap)
    }

    for every in [16u64, 256, 4096] {
        let (secs, replayed, snap) = run_pair(
            &log,
            every,
            kill_at,
            || HyperLogLog::new(12).unwrap(),
            |t: &Tuple, s: &mut HyperLogLog| s.insert(t.get(0).unwrap().as_str().unwrap()),
        );
        let mut hll = HyperLogLog::new(12).unwrap();
        hll.restore(&snap).unwrap();
        r.row(
            &format!("HLL p=12, ckpt={every}"),
            &[
                ("replayed", format!("{replayed}/{n}")),
                ("recover_sec", f(secs)),
                ("est_err_pct", f(100.0 * relative_error(hll.estimate(), distinct))),
                ("matches_uninterrupted", (hll.estimate() == hll_direct.estimate()).to_string()),
            ],
        );
        let (secs, replayed, snap) = run_pair(
            &log,
            every,
            kill_at,
            || CountMinSketch::new(2048, 4).unwrap(),
            |t: &Tuple, s: &mut CountMinSketch| s.add(t.get(0).unwrap().as_str().unwrap(), 1),
        );
        let mut cms = CountMinSketch::new(2048, 4).unwrap();
        cms.restore(&snap).unwrap();
        r.row(
            &format!("CMS 2048x4, ckpt={every}"),
            &[
                ("replayed", format!("{replayed}/{n}")),
                ("recover_sec", f(secs)),
                ("top100_mean_abs_err", f(top_err(&cms))),
                ("matches_uninterrupted", (cms.snapshot() == cms_direct.snapshot()).to_string()),
            ],
        );
    }
}

// ---------------------------------------------------------------- T2.D
/// Self-instrumentation: (1) what the sampled latency/queue
/// observability layer costs at different sampling rates on the T2.B
/// word-count topology, and (2) the latency-vs-batch-size trade-off the
/// layer makes visible — ack latency quantiles, batch occupancy, queue
/// high-water marks, and backpressure stalls per batch size.
fn t2d_observability(r: &mut Recorder) {
    use sa_platform::*;
    use std::time::Duration;
    r.section("T2.D", "Observability — instrumentation overhead & latency vs batch size");
    let n = 100_000;
    let run = |n: usize, batch_size: usize, sample_every: u32| {
        let tb = echo_topology(n);
        timed(|| {
            run_topology(
                tb,
                ExecutorConfig {
                    semantics: Semantics::AtLeastOnce,
                    batch_size,
                    latency_sample_every: sample_every,
                    ack_timeout: Duration::from_secs(5),
                    shutdown_timeout: Duration::from_secs(30),
                    ..Default::default()
                },
            )
            .unwrap()
        })
    };

    // Part 1: overhead of the layer at batch=64, against the bare
    // (`latency_sample_every = 0`) fast path. The configurations are
    // interleaved round-robin within each repetition so slow machine
    // drift (thermal, background load) lands on all of them equally,
    // and each config reports its *fastest* run: run-to-run noise on a
    // shared box is strictly additive interference, while the
    // instrumentation cost is systematic — it is still present in the
    // least-disturbed run. A 4× longer stream than Part 2 shrinks the
    // relative size of scheduler hiccups.
    let overhead_n = 400_000;
    let configs: [(&str, u32); 3] =
        [("off (baseline)", 0), ("sampled 1/32 (default)", 32), ("every event", 1)];
    let mut secs_per_config: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _rep in 0..5 {
        for (i, (_, every)) in configs.iter().enumerate() {
            secs_per_config[i].push(run(overhead_n, 64, *every).1);
        }
    }
    let best: Vec<f64> = secs_per_config
        .iter()
        .map(|secs| secs.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let base = best[0];
    for ((label, _), &secs) in configs.iter().zip(&best) {
        r.row(
            &format!("instrumentation {label}"),
            &[
                ("Ktuples/s", f(overhead_n as f64 / secs / 1e3)),
                ("overhead_vs_off", format!("{:+.1}%", (secs / base - 1.0) * 100.0)),
            ],
        );
    }

    // Part 2: what the instrumentation shows across batch sizes — the
    // throughput/latency trade-off, measured by the pipeline itself.
    for batch_size in [1usize, 8, 64, 256] {
        let (res, secs) = run(n, batch_size, 8);
        let snap = res.metrics.snapshot();
        let ack = snap.histogram("src.ack_latency_us").copied().unwrap_or_default();
        let exec = snap.histogram("stage1.execute_us").copied().unwrap_or_default();
        let fill = snap.histogram("stage1.batch_fill").copied().unwrap_or_default();
        let stage1 = snap.link("stage1.input").copied().unwrap_or_default();
        let sink = snap.link("sink.input").copied().unwrap_or_default();
        r.row(
            &format!("batch={batch_size}"),
            &[
                ("Ktuples/s", f(n as f64 / secs / 1e3)),
                ("ack_p50_us", f(ack.p50)),
                ("ack_p99_us", f(ack.p99)),
                ("exec_p99_us", f(exec.p99)),
                ("batch_fill_p50", f(fill.p50)),
                ("queue_hwm", (stage1.high_water.max(sink.high_water)).to_string()),
                ("stalls", (stage1.stalls + sink.stalls).to_string()),
                ("clean", res.clean_shutdown.to_string()),
            ],
        );
    }

    // Tight queues (capacity 8 instead of 1024): the stall counter
    // surfaces the backpressure the bounded executor model applies.
    {
        let tb = echo_topology(n);
        let (res, secs) = timed(|| {
            run_topology(
                tb,
                ExecutorConfig {
                    semantics: Semantics::AtLeastOnce,
                    batch_size: 64,
                    latency_sample_every: 8,
                    channel_capacity: 8,
                    ack_timeout: Duration::from_secs(5),
                    shutdown_timeout: Duration::from_secs(30),
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let snap = res.metrics.snapshot();
        let stage1 = snap.link("stage1.input").copied().unwrap_or_default();
        let sink = snap.link("sink.input").copied().unwrap_or_default();
        r.row(
            "batch=64, queue capacity=8",
            &[
                ("Ktuples/s", f(n as f64 / secs / 1e3)),
                ("queue_hwm", (stage1.high_water.max(sink.high_water)).to_string()),
                ("stalls", (stage1.stalls + sink.stalls).to_string()),
                ("stall_secs", f(snap.total_stall_secs())),
                ("clean", res.clean_shutdown.to_string()),
            ],
        );
    }
}

// ---------------------------------------------------------------- T2.E
fn t2e_event_time(r: &mut Recorder) {
    use sa_core::synopsis::Synopsis;
    use sa_platform::topology::{vec_spout, Bolt};
    use sa_platform::tuple::tuple_of;
    use sa_platform::*;
    r.section("T2.E", "Event time — completeness vs result delay (watermark bound × lateness)");

    // Per-window event counter (the aggregate under test is the
    // event-time machinery, not the synopsis).
    #[derive(Clone, Default)]
    struct Count(u64);
    impl Synopsis for Count {
        fn snapshot(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }
        fn restore(&mut self, bytes: &[u8]) -> sa_core::Result<()> {
            self.0 = u64::from_le_bytes(
                bytes.try_into().map_err(|_| sa_core::SaError::Platform("bad Count".into()))?,
            );
            Ok(())
        }
    }
    impl Merge for Count {
        fn merge(&mut self, other: &Self) -> sa_core::Result<()> {
            self.0 += other.0;
            Ok(())
        }
    }

    // One fixed stream for every configuration: Zipf keys, event times
    // up to `DISORDER` ticks out of arrival order (§3's imperfection).
    const DISORDER: u64 = 32;
    const WINDOW: u64 = 64;
    let n = 100_000usize;
    let events = EventStream::new(200, DISORDER, 42).take_vec(n);
    let total = events.len() as u64;
    let tuples: Vec<Tuple> = events
        .iter()
        .map(|e| tuple_of([Value::Str(e.key.clone().into()), Value::Int(e.value)]).at(e.event_time))
        .collect();

    // The trade-off under study: a larger watermark bound and a longer
    // allowed lateness both capture more of the disorder (completeness
    // up) at the price of later results — a window's final answer is
    // settled `bound + lateness` event-time ticks after its end.
    for (bound, lateness) in [(0u64, 0u64), (8, 0), (32, 0), (0, 8), (0, 32), (8, 32), (32, 32)] {
        let store = CheckpointStore::new();
        let mut tb = TopologyBuilder::new();
        tb.set_spout("events", vec![vec_spout(tuples.clone())]);
        let mut bolts: Vec<Box<dyn Bolt>> = Vec::new();
        for task in 0..2 {
            let bolt = WindowBolt::new(
                &format!("win/{task}"),
                &store,
                Count::default(),
                WindowConfig::new(WindowSpec::Tumbling { size: WINDOW }, vec![0])
                    .lateness(lateness),
                |_t: &Tuple, s: &mut Count| s.0 += 1,
            )
            .unwrap();
            bolts.push(Box::new(bolt));
        }
        tb.set_bolt("win", bolts).fields("events", vec![0]);
        let (res, secs) = timed(|| {
            run_topology(
                tb,
                ExecutorConfig {
                    semantics: Semantics::AtMostOnce,
                    // emit_every(1): a watermark after every tuple, so
                    // the configured bound is the *only* slack and the
                    // sweep isolates its effect (the default cadence of
                    // 32 adds ~32 ticks of hidden slack).
                    watermarks: Some(WatermarkConfig::bounded(bound).emit_every(1)),
                    ..Default::default()
                },
            )
            .unwrap()
        });
        let snap = res.metrics.snapshot();
        let dropped = snap.counter("win.dropped_late");
        let fired = snap.counter("win.fired");
        // Amended firings: a window re-fired for a straggler inside the
        // lateness horizon (downstream saw a correction).
        let mut distinct = std::collections::HashSet::new();
        for t in res.outputs.get("win").map(Vec::as_slice).unwrap_or(&[]) {
            distinct.insert((
                t.get(0).unwrap().as_str().unwrap().to_string(),
                t.get(1).unwrap().as_int().unwrap(),
            ));
        }
        let emitted = res.outputs.get("win").map(Vec::len).unwrap_or(0);
        let amended = emitted - distinct.len();
        // The table's claim, checked: nothing is dropped exactly when
        // bound + lateness covers the stream's disorder, and lateness
        // with a bound short of it amends windows that fired early.
        let cell = format!("t2.e: bound={bound} lateness={lateness}");
        assert_eq!(dropped == 0, bound + lateness >= DISORDER, "{cell}: {dropped} dropped");
        assert!(lateness == 0 || bound >= DISORDER || amended > 0, "{cell}: nothing amended");
        r.row(
            &format!("bound={bound:>2} lateness={lateness:>2}"),
            &[
                (
                    "completeness",
                    format!("{:.3}%", 100.0 * (total - dropped) as f64 / total as f64),
                ),
                ("dropped_late", dropped.to_string()),
                ("windows", distinct.len().to_string()),
                ("amended", amended.to_string()),
                ("fired", fired.to_string()),
                ("settle_delay", (bound + lateness).to_string()),
                ("Ktuples/s", f(total as f64 / secs / 1e3)),
            ],
        );
    }
}

// ---------------------------------------------------------------- T2.F
fn t2f_supervision(r: &mut Recorder) {
    use sa_platform::log::Record;
    use sa_platform::topology::{Bolt, OutputCollector, Spout};
    use sa_platform::tuple::tuple_of;
    use sa_platform::*;
    use std::time::Duration;
    r.section("T2.F", "Supervision — recovery latency & goodput vs panic rate × backoff");

    const N: usize = 10_000;
    let log = Log::new(1).unwrap();
    let truth = wordcount_fill(&log, N, 2026);
    let build = |store: &CheckpointStore| wordcount_topology(&log, store, 32, None);

    // The sweep: how much goodput does panic isolation cost, and how
    // much does the backoff schedule add to recovery latency? A
    // constant backoff (cap = base) isolates the backoff variable.
    for panic_prob in [0.0, 0.01, 0.05] {
        for backoff_us in [0u64, 1_000, 10_000] {
            if panic_prob == 0.0 && backoff_us > 0 {
                continue; // backoff never fires without panics
            }
            let store = CheckpointStore::new();
            let policy = RestartPolicy::default()
                .base(Duration::from_micros(backoff_us))
                .cap(Duration::from_micros(backoff_us))
                .budget(100_000, Duration::from_secs(120));
            let config = ExecutorConfig {
                semantics: Semantics::AtLeastOnce,
                // Nothing is dropped in this sweep, so expiry only adds
                // noise: the timeout must sit far above the queue delay
                // a 10ms-backoff restart storm can induce, or expired
                // roots re-enter the queue faster than they settle.
                ack_timeout: Duration::from_secs(30),
                shutdown_timeout: Duration::from_secs(120),
                restart: policy,
                faults: FaultPlan::new(7).panic_on("wc", panic_prob),
                ..Default::default()
            };
            let (res, secs) = timed(|| run_topology(build(&store), config).unwrap());
            let snap = res.metrics.snapshot();
            let restart = snap.histogram("wc.restart_us").copied().unwrap_or_default();
            let exact = wordcount_merged(&res.outputs) == truth;
            r.row(
                &format!("panic={:>4.1}% backoff={:>5}µs", panic_prob * 100.0, backoff_us),
                &[
                    ("Ktuples/s", f(N as f64 / secs / 1e3)),
                    ("panics", snap.task_panics.to_string()),
                    ("restarts", snap.task_restarts.to_string()),
                    ("dlq", snap.quarantined_roots.to_string()),
                    ("restart_p50_us", f(restart.p50)),
                    ("restart_p99_us", f(restart.p99)),
                    ("exact", exact.to_string()),
                    ("clean", res.clean_shutdown.to_string()),
                ],
            );
        }
    }

    // Poison-tuple quarantine: one word the bolt rejects on every
    // attempt; after max_replays replays each of its records lands in
    // the dead-letter queue instead of cycling forever.
    {
        let poison = "w07";
        let mut tb = TopologyBuilder::new();
        let spout = LogSpout::new(&log, 0, 0, 0, |rec: &Record| tuple_of([rec.key.as_str()]));
        tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
        let bolt = move |t: &Tuple, out: &mut OutputCollector| {
            if t.get(0).unwrap().as_str() == Some(poison) {
                out.fail();
            }
        };
        tb.set_bolt("validate", vec![Box::new(bolt) as Box<dyn Bolt>]).shuffle("log");
        let config = ExecutorConfig {
            max_replays: Some(4),
            ack_timeout: Duration::from_secs(1),
            shutdown_timeout: Duration::from_secs(60),
            ..Default::default()
        };
        let (res, secs) = timed(|| run_topology(tb, config).unwrap());
        let snap = res.metrics.snapshot();
        r.row(
            "poison word, max_replays=4",
            &[
                ("Ktuples/s", f(N as f64 / secs / 1e3)),
                ("dlq", snap.quarantined_roots.to_string()),
                ("poison_records", truth[poison].to_string()),
                ("replays", snap.replayed_roots.to_string()),
                ("clean", res.clean_shutdown.to_string()),
            ],
        );
    }

    // The control: RestartPolicy::none() restores fail-fast — the same
    // 1%-panic run the default policy absorbs becomes a topology error.
    {
        let store = CheckpointStore::new();
        let config = ExecutorConfig {
            restart: RestartPolicy::none(),
            faults: FaultPlan::new(7).panic_on("wc", 0.01),
            shutdown_timeout: Duration::from_secs(60),
            ..Default::default()
        };
        let outcome = match run_topology(build(&store), config) {
            Ok(_) => "Ok (no panic fired)".to_string(),
            Err(e) => {
                let msg = e.to_string();
                format!("Err: {}", &msg[..msg.len().min(60)])
            }
        };
        r.row("RestartPolicy::none(), panic=1%", &[("result", outcome)]);
    }
}

// ------------------------------------------------------------------ F1
fn f1_lambda(r: &mut Recorder) {
    use sa_platform::lambda::LambdaArchitecture;
    r.section("F1", "Lambda Architecture — merge correctness & staleness");
    let lambda = LambdaArchitecture::new(8).unwrap();
    let mut g = ZipfStream::new(5_000, 1.1, 111);
    let mut truth: HashMap<u64, i64> = HashMap::new();
    let ((), secs) = timed(|| {
        for i in 0..210_000u64 {
            let id = g.next_id();
            lambda.ingest(&format!("k{id}"), 1);
            *truth.entry(id).or_insert(0) += 1;
            // Batch runs every 50k; the last 10k events stay in the
            // speed layer, making batch-only staleness visible.
            if i % 50_000 == 49_999 {
                lambda.run_batch();
            }
        }
    });
    let handle = lambda.handle();
    let mut max_err = 0i64;
    let mut batch_stale = 0i64;
    for (&id, &t) in truth.iter().take(500) {
        let key = format!("k{id}");
        max_err = max_err.max((handle.query(&key, sa_platform::Layer::Merged).value - t).abs());
        batch_stale += (t - handle.query(&key, sa_platform::Layer::Batch).value).abs();
    }
    r.row(
        "200k events, batch every 50k",
        &[
            ("merged_query_max_err", max_err.to_string()),
            ("batch_only_staleness(500 keys)", batch_stale.to_string()),
            ("speed_layer_keys", lambda.speed_layer_keys().to_string()),
            ("Kevents/s", sa_bench::f(210_000.0 / secs / 1e3)),
        ],
    );
    let (_, batch_secs) = timed(|| lambda.run_batch());
    r.row(
        "batch recompute",
        &[("sec", f(batch_secs)), ("speed_keys_after", lambda.speed_layer_keys().to_string())],
    );
}

// ---------------------------------------------------------------- T2.G
/// Serving-index scalability: merged point-query latency while the
/// speed layer sustains an ingest storm, swept over reader thread
/// counts. A lock convoy would multiply p99 with every added reader;
/// the epoch-swapped view must keep it near-flat.
fn t2g_query_serving(r: &mut Recorder) {
    use sa_platform::lambda::LambdaArchitecture;
    use sa_platform::Layer;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    r.section("T2.G", "Serving index — query p99 under ingest + read storm");

    const KEYS: u64 = 50_000;
    let lambda = Arc::new(LambdaArchitecture::with_config(4, 256).unwrap());
    let mut g = ZipfStream::new(KEYS, 1.1, 2027);
    for _ in 0..100_000 {
        lambda.ingest(&format!("k{}", g.next_id()), 1);
    }
    lambda.run_batch(); // a populated batch view; the storm refills speed

    let mut p99s = Vec::new();
    for readers in [1usize, 4, 16] {
        let done = Arc::new(AtomicBool::new(false));
        let storm = {
            let lambda = lambda.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut g = ZipfStream::new(KEYS, 1.1, 31 + readers as u64);
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) {
                    lambda.ingest(&format!("k{}", g.next_id()), 1);
                    n += 1;
                }
                n
            })
        };
        let handles: Vec<_> = (0..readers)
            .map(|t| {
                let lambda = lambda.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let handle = lambda.handle();
                    let mut rng = SplitMix64::new(900 + t as u64);
                    let mut lat = Vec::with_capacity(1 << 16);
                    while !done.load(Ordering::Relaxed) {
                        let key = format!("k{}", rng.next_below(KEYS));
                        let t0 = Instant::now();
                        let res = handle.query(&key, Layer::Merged);
                        lat.push(t0.elapsed().as_nanos() as u64);
                        std::hint::black_box(res.value);
                    }
                    lat
                })
            })
            .collect();
        let window = Duration::from_millis(400);
        std::thread::sleep(window);
        done.store(true, Ordering::Relaxed);
        let ingested = storm.join().unwrap();
        let mut lat: Vec<u64> = Vec::new();
        for h in handles {
            lat.extend(h.join().unwrap());
        }
        lat.sort_unstable();
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] as f64 / 1e3;
        let (p50_us, p99_us) = (pct(0.50), pct(0.99));
        let reads_s = lat.len() as f64 / window.as_secs_f64();
        let ingest_s = ingested as f64 / window.as_secs_f64();
        r.row(
            &format!("{readers:>2} readers"),
            &[
                ("Mreads/s", f(reads_s / 1e6)),
                ("p50_us", f(p50_us)),
                ("p99_us", f(p99_us)),
                ("Kingest/s", f(ingest_s / 1e3)),
                ("speed_epoch", lambda.metrics().gauge("speed.epoch").unwrap_or(0).to_string()),
            ],
        );
        p99s.push(p99_us);
    }
    // A reported number from one wall-clock run, not a gate.
    r.row("p99 16 readers / 1 reader", &[("ratio", f(p99s[2] / p99s[0].max(1e-9)))]);
}

// ---------------------------------------------------------------- T2.H
/// Scheduler ablation. Two workloads isolate the two claims:
///
/// * **wide64** — one bolt component with 64 latency-bound tasks
///   (20 µs simulated I/O per tuple, at-most-once). Thread-per-task
///   overlaps all 64 sleeps with 64 dedicated threads; the
///   work-stealing pool must recover that overlap with a handful of
///   workers. The 1 → 4 worker throughput ratio is reported.
/// * **chain3** — a CPU-light three-stage pipeline at parallelism 1,
///   where per-tuple cost is dominated by the channel hop: a single
///   pool worker against thread-per-task (four threads).
fn t2h_scheduler(r: &mut Recorder) {
    use sa_platform::topology::{vec_spout, Bolt};
    use sa_platform::tuple::tuple_of;
    use sa_platform::*;
    use std::time::Duration;
    r.section("T2.H", "Scheduler — work-stealing worker sweep & channel-bound chain");

    let wide_n = 4_000usize;
    let run_wide = |scheduling: Scheduling| -> f64 {
        let tuples: Vec<Tuple> = (0..wide_n).map(|i| tuple_of([i as i64])).collect();
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![vec_spout(tuples)]);
        let bolts: Vec<Box<dyn Bolt>> = (0..64)
            .map(|_| {
                Box::new(|t: &Tuple, o: &mut OutputCollector| {
                    // ~5µs of CPU work (hash mixing). A blocking sleep
                    // here would measure sleep *overlap*, not scheduler
                    // overhead: thread-per-task parks all 64 bolt
                    // threads concurrently, while a pooled worker
                    // serializes the naps and eats the kernel's ~50µs
                    // timer slack on every one.
                    let mut acc = t.get(0).and_then(Value::as_int).unwrap() as u64;
                    for _ in 0..2_000 {
                        acc = sa_core::hash::mix64(acc);
                    }
                    std::hint::black_box(acc);
                    o.emit(t.clone());
                }) as Box<dyn Bolt>
            })
            .collect();
        tb.set_bolt("io", bolts).shuffle("src");
        let (res, secs) = timed(|| {
            run_topology(
                tb,
                ExecutorConfig {
                    scheduling,
                    semantics: Semantics::AtMostOnce,
                    shutdown_timeout: Duration::from_secs(60),
                    ..Default::default()
                },
            )
            .unwrap()
        });
        assert!(res.clean_shutdown);
        assert_eq!(res.outputs.get("io").map_or(0, Vec::len), wide_n);
        wide_n as f64 / secs / 1e3
    };
    let tpt = run_wide(Scheduling::ThreadPerTask);
    r.row(
        "wide64, thread-per-task (65 threads)",
        &[("Ktuples/s", f(tpt)), ("n", wide_n.to_string())],
    );
    let mut by_workers = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let ktps = run_wide(Scheduling::WorkStealing { workers });
        r.row(
            &format!("wide64, work-stealing workers={workers}"),
            &[("Ktuples/s", f(ktps)), ("n", wide_n.to_string())],
        );
        by_workers.push(ktps);
    }

    let chain_n = 200_000usize;
    let run_chain = |scheduling: Scheduling| -> f64 {
        let tuples: Vec<Tuple> = (0..chain_n).map(|i| tuple_of([(i % 100) as i64])).collect();
        let mut tb = TopologyBuilder::new();
        tb.set_spout("src", vec![vec_spout(tuples)]);
        let scale = |t: &Tuple, o: &mut OutputCollector| {
            let v = t.get(0).and_then(Value::as_int).unwrap();
            o.emit(tuple_of([v * 3]));
        };
        tb.set_bolt("scale", vec![Box::new(scale) as Box<dyn Bolt>]).shuffle("src");
        let add = |t: &Tuple, o: &mut OutputCollector| {
            let v = t.get(0).and_then(Value::as_int).unwrap();
            o.emit(tuple_of([v + 1]));
        };
        tb.set_bolt("add", vec![Box::new(add) as Box<dyn Bolt>]).shuffle("scale");
        let sink = |_t: &Tuple, _o: &mut OutputCollector| {};
        tb.set_bolt("sink", vec![Box::new(sink) as Box<dyn Bolt>]).shuffle("add");
        let (res, secs) = timed(|| {
            run_topology(
                tb,
                ExecutorConfig {
                    scheduling,
                    semantics: Semantics::AtMostOnce,
                    shutdown_timeout: Duration::from_secs(60),
                    ..Default::default()
                },
            )
            .unwrap()
        });
        assert!(res.clean_shutdown);
        chain_n as f64 / secs / 1e3
    };
    let chain_ws1 = run_chain(Scheduling::WorkStealing { workers: 1 });
    let chain_tpt = run_chain(Scheduling::ThreadPerTask);
    for (label, ktps) in [("chain3, ws-1", chain_ws1), ("chain3, thread-per-task", chain_tpt)] {
        r.row(label, &[("Ktuples/s", f(ktps)), ("n", chain_n.to_string())]);
    }

    // The ratios come from one wall-clock run each and are reported, not
    // gated; `cores` says how far the 1 → 4 worker scaling can go on
    // this host.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.row(
        "ratios",
        &[
            ("ws_scaling_4_over_1", f(by_workers[2] / by_workers[0].max(1e-9))),
            ("ws8_over_tpt", f(by_workers[3] / tpt.max(1e-9))),
            ("cores", cores.to_string()),
        ],
    );
}

// ---------------------------------------------------------------- T2.J
/// Live rescaling. A three-phase log — light uniform traffic, a Zipf
/// hot-key storm with 20 µs of per-tuple work, light traffic again —
/// flows through a `Parallelism::Auto` query while the signal-driven
/// autoscaler watches queue depth and backpressure stalls. The bar:
/// the component widens under the storm, drains after it, and the
/// served counts stay *exact* through every live migration.
fn t2j_rescale(r: &mut Recorder) {
    use sa_platform::{
        tuple_of, AutoPolicy, ExecutorConfig, Log, LogSpout, Parallelism, Query, Record,
        Scheduling, Semantics, Spout, Tuple,
    };
    use sa_sketches::heavy_hitters::SpaceSaving;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    r.section("T2.J", "Live rescaling — autoscaler vs a Zipf hot-key storm");

    const KEYS: u64 = 50;
    const SLOTS: usize = 4;
    // Phase sizes: the storm carries the CPU weight; the calm tail is
    // long enough (in wall time) for several scale-down decisions.
    const CALM_BEFORE: usize = 8_000;
    const STORM: usize = 32_000;
    const CALM_AFTER: usize = 150_000;

    let log = Log::new(1).unwrap();
    let mut truth: HashMap<String, u64> = HashMap::new();
    let mut feed = |key: String, heavy: bool| {
        *truth.entry(key.clone()).or_default() += 1;
        log.append(&key, if heavy { b"h".to_vec() } else { b"l".to_vec() });
    };
    let mut rng = SplitMix64::new(0x72E5);
    for _ in 0..CALM_BEFORE {
        feed(format!("k{}", rng.next_below(KEYS)), false);
    }
    let mut zipf = ZipfStream::new(KEYS, 1.2, 0x5702);
    for _ in 0..STORM {
        feed(format!("k{}", zipf.next_id()), true);
    }
    for _ in 0..CALM_AFTER {
        feed(format!("k{}", rng.next_below(KEYS)), false);
    }

    // Per-tuple cost rides in the record payload: storm tuples simulate
    // 20 µs of feature extraction, calm tuples are free.
    let update = |t: &Tuple, s: &mut SpaceSaving<String>| {
        if t.get(1).unwrap().as_str().unwrap() == "h" {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(20) {
                std::hint::black_box(0u64);
            }
        }
        s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
    };
    let spout = LogSpout::new(&log, 0, 0, 0, |rec: &Record| {
        tuple_of([rec.key.as_str(), if rec.value == b"h" { "h" } else { "l" }])
    });
    let compiled = Query::from("events")
        .key_by(vec![0])
        .parallelism(Parallelism::Auto { min: 1, max: SLOTS })
        .checkpoint_every(64)
        .aggregate(SpaceSaving::<String>::new(64).unwrap(), update)
        .serve("t2j")
        .compile(vec![Box::new(spout) as Box<dyn Spout>])
        .unwrap();
    let view = compiled.view();
    let agg = compiled.agg_component().to_string();
    let ctl = compiled.controller().unwrap();
    // Patience beats twitchiness: a scale step needs 20 ms of cooldown
    // and a drain needs 100 ms of sustained calm, so only the storm —
    // not transient queue ripples — moves the parallelism.
    let policy = AutoPolicy {
        min: 1,
        max: SLOTS,
        interval: Duration::from_millis(5),
        up_depth: 48,
        up_stall_ns: 20_000_000,
        down_depth: 8,
        calm_ticks: 20,
        cooldown_ticks: 4,
    };
    let mut scaler = compiled.autoscaler(policy).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = stop.clone();
    let loop_handle = std::thread::spawn(move || {
        scaler.run_until(&loop_stop);
        scaler
    });

    let total = (CALM_BEFORE + STORM + CALM_AFTER) as f64;
    let t0 = Instant::now();
    let result = compiled
        .run(ExecutorConfig {
            scheduling: Scheduling::WorkStealing { workers: 4 },
            semantics: Semantics::AtLeastOnce,
            ack_timeout: Duration::from_secs(2),
            shutdown_timeout: Duration::from_secs(60),
            ..Default::default()
        })
        .unwrap();
    let wall = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    let scaler = loop_handle.join().unwrap();
    assert!(result.clean_shutdown);

    // Exactness through every migration: the served global synopsis
    // must match the ground truth for all 50 keys (k = 64 > 50, so
    // SpaceSaving is exact here).
    let served = view.global().expect("view published").value;
    let exact_ok = truth.iter().all(|(k, &c)| served.estimate(k) == c);
    let table = ctl.table_of(&agg).unwrap();

    // Whether it scaled up (peak_active > 1) and drained (final_active <
    // peak_active) is timing-dependent and only recorded; exactness is
    // the bar.
    r.row(
        "storm",
        &[
            ("Ktuples/s", f(total / wall.as_secs_f64() / 1e3)),
            ("wall_ms", f(wall.as_secs_f64() * 1e3)),
            ("peak_active", scaler.peak.to_string()),
            ("final_active", scaler.active().to_string()),
            ("ups", scaler.scale_ups.to_string()),
            ("downs", scaler.scale_downs.to_string()),
            ("installs", table.rescales().to_string()),
            ("migrated_groups", table.migrated_groups().to_string()),
            ("ticks", scaler.ticks.len().to_string()),
            ("exact", exact_ok.to_string()),
        ],
    );
    assert!(exact_ok, "t2.j: served counts drifted through a live migration");
}

// ----------------------------------------------- word count (T2.F, T2.K)

/// Skewed word stream appended to `log`; returns its exact counts.
fn wordcount_fill(log: &sa_platform::Log, n: usize, seed: u64) -> HashMap<String, u64> {
    let mut rng = SplitMix64::new(seed);
    let mut truth: HashMap<String, u64> = HashMap::new();
    for _ in 0..n {
        let i = rng.next_below(30).min(rng.next_below(30));
        let word = format!("w{i:02}");
        *truth.entry(word.clone()).or_default() += 1;
        log.append(&word, Vec::new());
    }
    truth
}

/// Log spout with a committed-offset frontier (stored every
/// `frontier_every` settled records) feeding two fields-grouped exact
/// SpaceSaving word counters (k = 64 > 30 distinct words, so any lost or
/// double-applied record shows up as a count mismatch). The bolts are
/// builders, so a supervised restart rebuilds a task from its checkpoint
/// mid-run.
fn wordcount_topology(
    log: &sa_platform::Log,
    store: &sa_platform::CheckpointStore,
    frontier_every: u64,
    throttle: Option<std::time::Duration>,
) -> sa_platform::TopologyBuilder {
    use sa_platform::{
        tuple_of, Bolt, BoltBuilder, LogSpout, OperatorConfig, Record, Spout, SynopsisBolt,
        TopologyBuilder, Tuple,
    };
    use sa_sketches::heavy_hitters::SpaceSaving;
    let mut tb = TopologyBuilder::new();
    let spout = LogSpout::new(log, 0, 0, 0, |r: &Record| tuple_of([r.key.as_str()])).with_frontier(
        store,
        "log.frontier",
        frontier_every,
    );
    tb.set_spout("log", vec![Box::new(spout) as Box<dyn Spout>]);
    let mut builders: Vec<BoltBuilder> = Vec::new();
    for task in 0..2 {
        let store = store.clone();
        builders.push(Box::new(move || {
            let update = move |t: &Tuple, s: &mut SpaceSaving<String>| {
                if let Some(d) = throttle {
                    std::thread::sleep(d);
                }
                s.insert(t.get(0).unwrap().as_str().unwrap().to_string());
            };
            // Commit cadence must beat the panic rate (see
            // examples/supervised.rs): rare checkpoints burn each
            // restart's progress on rebuild churn.
            let cfg = OperatorConfig { checkpoint_every: 25, ..Default::default() };
            let bolt = SynopsisBolt::with_config(
                &format!("wc/{task}"),
                &store,
                SpaceSaving::new(64).unwrap(),
                update,
                cfg,
            )?;
            Ok(Box::new(bolt) as Box<dyn Bolt>)
        }));
    }
    tb.set_bolt("wc", builders).fields("log", vec![0]);
    tb
}

/// Merge the per-task flush snapshots back into one exact count table.
fn wordcount_merged(outputs: &HashMap<String, Vec<sa_platform::Tuple>>) -> HashMap<String, u64> {
    use sa_core::Synopsis;
    use sa_sketches::heavy_hitters::SpaceSaving;
    let mut global = SpaceSaving::<String>::new(64).unwrap();
    for t in &outputs["wc"] {
        let mut part = SpaceSaving::<String>::new(64).unwrap();
        part.restore(t.get(1).unwrap().as_bytes().unwrap()).unwrap();
        global.merge(&part).unwrap();
    }
    global.heavy_hitters(0.0).into_iter().map(|h| (h.item, h.count)).collect()
}

// ---------------------------------------------------------------- T2.K

/// Records in the T2.K kill -9 child's stream.
const T2K_KILL_N: usize = 3_000;

/// The durable log under `root`, group-committed every 32 appends.
fn t2k_open_log(root: &std::path::Path) -> sa_platform::Log {
    use sa_platform::{DiskStorage, Log, Storage, SyncPolicy};
    use std::sync::Arc;
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(root).unwrap());
    Log::durable(storage, "log", 1, SyncPolicy::EveryN(32), 1 << 20).unwrap()
}

/// The durable checkpoint store under `root`, group-committed every 8.
fn t2k_open_store(root: &std::path::Path) -> sa_platform::CheckpointStore {
    use sa_platform::{CheckpointStore, DiskStorage, DurableConfig, Storage, SyncPolicy};
    use std::sync::Arc;
    let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(root).unwrap());
    let cfg = DurableConfig { sync: SyncPolicy::EveryN(8), ..Default::default() };
    CheckpointStore::durable(storage, "ckpt", cfg).unwrap()
}

/// Total bytes on disk under `dir` (recursive) — the parent's progress
/// probe into the child's checkpoint WAL.
#[cfg(unix)]
fn t2k_dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => t2k_dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The kill -9 victim: spawned by [`t2k_durability`] with `t2.k-child`
/// in argv; runs the throttled durable word count against `SA_T2K_DIR`
/// until the parent SIGKILLs it mid-stream.
fn t2k_child() {
    use sa_platform::{run_topology, ExecutorConfig, Scheduling, Semantics};
    let Ok(root) = std::env::var("SA_T2K_DIR") else { return };
    let root = std::path::PathBuf::from(root);
    let log = t2k_open_log(&root);
    let store = t2k_open_store(&root);
    let tb = wordcount_topology(&log, &store, 16, Some(std::time::Duration::from_micros(150)));
    let _ = run_topology(
        tb,
        ExecutorConfig {
            semantics: Semantics::AtLeastOnce,
            scheduling: Scheduling::ThreadPerTask,
            seed: 7,
            ..Default::default()
        },
    );
}

/// Fill a durable log, SIGKILL a child process mid-stream, then recover
/// in-process from the same directory. Returns
/// `(exact_ok, records_replayed, recover_ms)`.
#[cfg(unix)]
fn t2k_kill9(root: &std::path::Path) -> (bool, u64, f64) {
    use sa_platform::{
        frontier_offset, run_topology, CheckpointStore, ExecutorConfig, Scheduling, Semantics,
    };
    use std::os::unix::process::ExitStatusExt;
    use std::time::{Duration, Instant};

    let cfg = || ExecutorConfig {
        semantics: Semantics::AtLeastOnce,
        scheduling: Scheduling::ThreadPerTask,
        seed: 7,
        ..Default::default()
    };
    let truth = wordcount_fill(&t2k_open_log(root), T2K_KILL_N, 42);
    // Uninterrupted exactly-once reference on an in-memory store.
    let reference = wordcount_merged(
        &run_topology(
            wordcount_topology(&t2k_open_log(root), &CheckpointStore::new(), 16, None),
            cfg(),
        )
        .unwrap()
        .outputs,
    );

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .arg("t2.k-child")
        .env("SA_T2K_DIR", root)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let ckpt = root.join("ckpt");
    let deadline = Instant::now() + Duration::from_secs(60);
    while t2k_dir_bytes(&ckpt) <= 8 * 1024 {
        assert!(Instant::now() < deadline, "t2.k: child never made durable progress");
        assert!(child.try_wait().unwrap().is_none(), "t2.k: child finished before the kill");
        std::thread::sleep(Duration::from_millis(2));
    }
    // A few more commits land mid-kill window; then no warning, no
    // flush, no drop handlers — SIGKILL.
    std::thread::sleep(Duration::from_millis(20));
    child.kill().unwrap();
    let killed = child.wait().unwrap().signal() == Some(9);

    let t0 = Instant::now();
    let log = t2k_open_log(root);
    let store = t2k_open_store(root);
    let offset = frontier_offset(&store, "log.frontier");
    let recovered = wordcount_merged(
        &run_topology(wordcount_topology(&log, &store, 16, None), cfg()).unwrap().outputs,
    );
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let exact =
        killed && offset < T2K_KILL_N as u64 && recovered == truth && recovered == reference;
    (exact, T2K_KILL_N as u64 - offset, recover_ms)
}

/// Durability. Part one prices the fsync discipline: the same 2 000
/// checkpoint commits against an in-memory store, a disk store that
/// fsyncs every commit, and a disk store group-committing every 32 —
/// then times recovery by reopening each directory (full WAL replay)
/// and again after compaction (snapshot load). Part two is the honest
/// crash: a child process running a throttled durable word count is
/// SIGKILLed mid-stream, and a fresh process recovers from the same
/// directory — the counts must be bit-identical to ground truth and to
/// an uninterrupted exactly-once reference.
fn t2k_durability(r: &mut Recorder) {
    use sa_platform::{CheckpointStore, DiskStorage, DurableConfig, Storage, SyncPolicy};
    use std::sync::Arc;
    r.section("T2.K", "Durability — fsync discipline vs goodput, recovery latency, kill -9");

    const COMMITS: u64 = 2_000;
    let root = std::env::temp_dir().join(format!("sa-t2k-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // 16 hot keys, 256-byte states, 16 acked records per commit — the
    // shape a SynopsisBolt checkpoint cadence produces.
    let run_commits = |store: &CheckpointStore| -> f64 {
        let (_, secs) = timed(|| {
            for c in 0..COMMITS {
                let ids: Vec<u64> = (c * 16..(c + 1) * 16).collect();
                store
                    .commit_batch(&format!("k{}", c % 16), &ids, vec![(c % 251) as u8; 256])
                    .unwrap();
            }
            store.sync().unwrap();
        });
        secs
    };

    let mem_secs = run_commits(&CheckpointStore::new());
    r.row(
        "in-memory",
        &[
            ("commits/s", f(COMMITS as f64 / mem_secs)),
            ("fsyncs", "0".to_string()),
            ("wal_replay_ms", "n/a".to_string()),
            ("snap_replay_ms", "n/a".to_string()),
        ],
    );

    let disk = |tag: &str, sync: SyncPolicy| -> (f64, u64, f64, f64) {
        let dir = format!("ckpt-{tag}");
        let cfg = DurableConfig { sync, ..Default::default() };
        let open = || -> CheckpointStore {
            let storage: Arc<dyn Storage> = Arc::new(DiskStorage::new(&root).unwrap());
            CheckpointStore::durable(storage, &dir, cfg).unwrap()
        };
        let store = open();
        let secs = run_commits(&store);
        let (fsyncs, _, _, _) = store.storage_stats().unwrap().totals();
        drop(store);
        // Recovery cost, worst case: reopen replays the full WAL.
        let (store, wal_secs) = timed(open);
        assert_eq!(store.len(), 16, "t2.k: WAL replay lost keys");
        // Recovery cost after compaction: load one snapshot instead.
        store.compact().unwrap();
        drop(store);
        let (store, snap_secs) = timed(open);
        assert_eq!(store.len(), 16, "t2.k: snapshot recovery lost keys");
        (secs, fsyncs, wal_secs * 1e3, snap_secs * 1e3)
    };

    let (always_secs, always_fsyncs, always_wal, always_snap) = disk("always", SyncPolicy::Always);
    r.row(
        "disk fsync-every",
        &[
            ("commits/s", f(COMMITS as f64 / always_secs)),
            ("fsyncs", always_fsyncs.to_string()),
            ("wal_replay_ms", f(always_wal)),
            ("snap_replay_ms", f(always_snap)),
        ],
    );
    let (group_secs, group_fsyncs, group_wal, group_snap) = disk("group32", SyncPolicy::EveryN(32));
    r.row(
        "disk group-commit(32)",
        &[
            ("commits/s", f(COMMITS as f64 / group_secs)),
            ("fsyncs", group_fsyncs.to_string()),
            ("wal_replay_ms", f(group_wal)),
            ("snap_replay_ms", f(group_snap)),
            ("speedup_vs_fsync_every", f(always_secs / group_secs)),
        ],
    );

    // A host that cannot SIGKILL a child cannot evaluate the crash: its
    // row reads skipped, never false or true.
    #[cfg(unix)]
    let kill9 = Some(t2k_kill9(&root.join("kill9")));
    #[cfg(not(unix))]
    let kill9: Option<(bool, u64, f64)> = None;
    let _ = std::fs::remove_dir_all(&root);
    let Some((exact, replayed, recover_ms)) = kill9 else {
        r.row("kill -9", &[("exact", "skipped: needs SIGKILL".to_string())]);
        return;
    };
    r.row(
        "kill -9",
        &[
            ("replayed", format!("{replayed}/{T2K_KILL_N}")),
            ("recover_ms", f(recover_ms)),
            ("exact", exact.to_string()),
        ],
    );
    assert!(exact, "t2.k: kill -9 recovery is not bit-identical to ground truth");
}

// ---------------------------------------------------------------- S2.H
fn s2_histograms(r: &mut Recorder) {
    use sa_histograms::*;
    r.section("S2.H", "Histograms — V-optimal vs equi-width SSE");
    // Step-heavy signal where bucket placement matters.
    let mut rng = SplitMix64::new(20);
    let mut values = Vec::new();
    for seg in 0..8 {
        let level = (seg * 37 % 11) as f64 * 10.0;
        for _ in 0..(20 + seg * 11) {
            values.push(level + rng.next_f64());
        }
    }
    let b = 8;
    let (vo, vo_sse) = v_optimal(&values, b).unwrap();
    // Equi-width on the index axis = equal-length buckets.
    let len = values.len() / b;
    let mut ew_sse = 0.0;
    for c in values.chunks(len) {
        let m = mean(c);
        ew_sse += c.iter().map(|x| (x - m) * (x - m)).sum::<f64>();
    }
    r.row(
        &format!("{} points, {b} buckets", values.len()),
        &[
            ("v_optimal_sse", f(vo_sse)),
            ("equi_width_sse", f(ew_sse)),
            ("ratio", f(ew_sse / vo_sse.max(1e-9))),
            ("buckets", vo.len().to_string()),
        ],
    );
    let mut g = ZipfStream::new(10_000, 1.3, 112);
    let items = g.take_vec(200_000);
    let mut eb = EndBiasedHistogram::new(0.01).unwrap();
    for &it in &items {
        eb.insert(it);
    }
    let truth = exact_counts(&items);
    let head = eb.head();
    let head_err: f64 = head.iter().map(|(i, c)| (*c as f64 - truth[i] as f64).abs()).sum::<f64>()
        / head.len().max(1) as f64;
    r.row(
        "end-biased(θ=1%)",
        &[
            ("head_items", head.len().to_string()),
            ("head_mean_abs_err", f(head_err)),
            ("distinct", eb.distinct().to_string()),
        ],
    );
}

// ---------------------------------------------------------------- S2.W
fn s2_wavelets(r: &mut Recorder) {
    use sa_histograms::wavelet::*;
    r.section("S2.W", "Wavelets — L2 error vs coefficients kept");
    let mut rng = SplitMix64::new(21);
    let n = 1024;
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let step = if i / 128 % 2 == 0 { 10.0 } else { -5.0 };
            step + (i as f64 / 40.0).sin() * 3.0 + rng.next_f64() * 0.5
        })
        .collect();
    let energy: f64 = values.iter().map(|x| x * x).sum::<f64>().sqrt();
    for k in [8usize, 32, 128, 1024] {
        let syn = WaveletSynopsis::build(&values, k).unwrap();
        r.row(
            &format!("top-{k} of 1024 coefficients"),
            &[
                ("l2_err_pct", f(100.0 * syn.l2_error(&values) / energy)),
                ("compression", f(n as f64 / k as f64)),
            ],
        );
    }
}
