//! The Lambda Architecture of the paper's Figure 1, end to end.
//!
//! Events flow into both the batch and the speed layer (stage 1); the
//! batch layer periodically recomputes views from the immutable master
//! dataset (stage 2) into the serving layer (stage 3); the speed layer
//! covers the gap (stage 4); queries merge both (stage 5).
//!
//! ```sh
//! cargo run --release --example lambda_wordcount
//! ```

use streaming_analytics::core::generators::ZipfStream;
use streaming_analytics::platform::lambda::LambdaArchitecture;
use streaming_analytics::prelude::Layer;

fn main() {
    // Publish a speed epoch every 1024 ingests: the write side batches
    // its epoch-swaps; each read holds one reader shard for a lookup.
    let lambda = LambdaArchitecture::with_config(8, 1024).unwrap();
    let mut gen = ZipfStream::new(10_000, 1.1, 77);

    println!("ingesting 300k hashtag events with a batch run every 100k…\n");
    let mut batch_runs = 0;
    for i in 0..300_000u64 {
        let tag = format!("#tag{}", gen.next_id());
        lambda.ingest(&tag, 1);
        if (i + 1) % 100_000 == 0 {
            let folded = lambda.run_batch();
            batch_runs += 1;
            println!(
                "batch run {batch_runs}: folded {folded} master records; speed layer now {} keys",
                lambda.speed_layer_keys()
            );
        }
    }

    // Publish the sub-cadence tail so the real-time view is current,
    // then query every layer through the one front door.
    lambda.flush_speed();
    let handle = lambda.handle();
    let probe = "#tag0";
    println!("\nquery '{probe}' after {} events:", lambda.ingested());
    for (name, layer) in
        [("batch view", Layer::Batch), ("speed view", Layer::Speed), ("merged", Layer::Merged)]
    {
        let r = handle.query(probe, layer);
        println!(
            "  {name:<11}: {:>6}  (epoch {}, {} events behind)",
            r.value,
            r.epoch,
            r.staleness.behind.unwrap_or(0)
        );
    }

    // Stage-5 correctness: merged query equals a full recount of the
    // master dataset.
    let mut exact = 0i64;
    for p in 0..lambda.master().partitions() {
        let end = lambda.master().end_offset(p);
        for rec in lambda.master().read(p, 0, end as usize) {
            if rec.key == probe {
                exact += i64::from_le_bytes(rec.value[..8].try_into().unwrap());
            }
        }
    }
    println!("  exact recount   : {exact}");
    assert_eq!(lambda.query(probe), exact, "merge must be exact");

    // Human fault tolerance: recompute views from raw data.
    println!("\nsimulating a bad view deploy and rebuilding from the master dataset…");
    lambda.rebuild_from_master();
    assert_eq!(lambda.query(probe), exact);
    println!("rebuilt; query still {exact}. The master dataset is the source of truth.");
}
