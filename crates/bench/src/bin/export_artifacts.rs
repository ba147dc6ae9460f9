//! Export the evaluation artifacts the paper publishes alongside its
//! source: the benchmark dataset (questions + gold Cypher + labels), the
//! graph snapshot, and the full per-question evaluation records.
//!
//! Writes to `./artifacts/` (or the directory given as the first
//! argument):
//! * `cypher_eval.json` — the 312-question benchmark
//! * `iyp_graph.json` — the synthetic IYP graph as a version-1
//!   checkpoint (loads with `iyp_graphdb::snapshot::load_snapshot`)
//! * `evaluation_records.json` — per-question pipeline outputs and all
//!   four metric scores
//! * `iyp_graph.cypher` — the graph as a replayable Cypher script

use chatiyp_bench::{run_evaluation_on, ExperimentConfig};
use cypher_eval::build_dataset;
use iyp_data::generate;
use iyp_graphdb::GraphSnapshot;
use std::path::PathBuf;

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "artifacts".to_string())
        .into();
    std::fs::create_dir_all(&dir).expect("create artifact directory");

    let config = ExperimentConfig::default();
    eprintln!(
        "generating dataset and benchmark (seed {}) ...",
        config.data.seed
    );
    let dataset = generate(&config.data);
    let bench = build_dataset(&dataset, &config.eval);

    let bench_path = dir.join("cypher_eval.json");
    std::fs::write(&bench_path, bench.to_json()).expect("write benchmark");
    println!(
        "wrote {} ({} questions)",
        bench_path.display(),
        bench.items.len()
    );

    let graph_path = dir.join("iyp_graph.json");
    let snapshot = GraphSnapshot::new(dataset.graph.clone(), 1);
    iyp_graphdb::snapshot::save_snapshot(&snapshot, &graph_path).expect("write snapshot");
    println!(
        "wrote {} ({} nodes, {} rels)",
        graph_path.display(),
        dataset.graph.node_count(),
        dataset.graph.rel_count()
    );

    let script_path = dir.join("iyp_graph.cypher");
    std::fs::write(
        &script_path,
        iyp_data::export::to_cypher_script(&dataset.graph),
    )
    .expect("write cypher script");
    println!("wrote {}", script_path.display());

    eprintln!("running the evaluation ...");
    let run = run_evaluation_on(&config, dataset, &bench);
    let records_path = dir.join("evaluation_records.json");
    std::fs::write(
        &records_path,
        serde_json::to_string_pretty(&run).expect("records serialize"),
    )
    .expect("write records");
    println!(
        "wrote {} ({} records, accuracy {:.1}%)",
        records_path.display(),
        run.records.len(),
        100.0 * run.accuracy()
    );
}
