//! The paper's motivating workload (Figure 3): Parallel-MM.
//!
//! Three acts:
//! 1. detect the data races of the naive fully-parallel matrix multiply
//!    and extract its race DAG (§1);
//! 2. sweep reducer heights on the race DAG and reproduce the
//!    `Θ(n/2^h + h)` space-time tradeoff analytically and on the
//!    physically expanded DAG;
//! 3. actually multiply matrices with racing threads tamed by a real
//!    concurrent reducer, verifying against the serial product.
//!
//! Run with: `cargo run --release --example parallel_mm`

use resource_time_tradeoff::race::{detect_races, extract_race_dag, mm};
use resource_time_tradeoff::reducer::{AddU64, BinaryReducer};
use resource_time_tradeoff::sim::parallel_mm as mm_sim;

fn main() {
    // ---- Act 1: races and the race DAG ------------------------------
    let n = 4u64;
    let (safe, _) = mm::parallel_mm(n);
    let (racy, layout) = mm::parallel_mm_racy(n);
    println!(
        "Parallel-MM n={n}: safe variant races = {}, racy variant races = {}",
        detect_races(&safe).len(),
        detect_races(&racy).len()
    );
    let rd = extract_race_dag(&racy).expect("acyclic dataflow");
    let z00 = rd.node_of[&layout.z(0, 0)];
    println!(
        "extracted race DAG: {} locations, {} update arcs, d_in(Z[0][0]) = {}",
        rd.dag.node_count(),
        rd.dag.edge_count(),
        rd.dag.in_degree(z00)
    );

    // ---- Act 2: the Figure 3 tradeoff curve --------------------------
    let n = 64usize;
    println!("\nreducer-height sweep for n = {n} (per Z cell):");
    println!(
        "{:>3} {:>12} {:>10} {:>10}",
        "h", "extra space", "analytic", "measured"
    );
    for p in mm_sim::tradeoff_curve(n, 7) {
        println!(
            "{:>3} {:>12} {:>10} {:>10}",
            p.height, p.extra_space, p.analytic, p.measured
        );
    }
    println!("(h = 1 halves the time with 2n² space; h = log n reaches Θ(log n))");

    // ---- Act 3: real threads, real reducer ---------------------------
    let n = 32usize;
    let x: Vec<u64> = (0..n * n).map(|i| (i % 7 + 1) as u64).collect();
    let y: Vec<u64> = (0..n * n).map(|i| (i % 5 + 1) as u64).collect();

    // serial reference
    let mut z_ref = vec![0u64; n * n];
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                z_ref[i * n + j] += x[i * n + k] * y[k * n + j];
            }
        }
    }

    // parallel: one binary reducer per output cell, all k-updates
    // applied from racing threads
    let reducers: Vec<BinaryReducer<AddU64>> = (0..n * n)
        .map(|_| BinaryReducer::new(AddU64, 3, n as u64))
        .collect();
    let threads = 8;
    std::thread::scope(|s| {
        for t in 0..threads {
            let reducers = &reducers;
            let (x, y) = (&x, &y);
            s.spawn(move || {
                // each thread takes a slice of the (i, j, k) space
                for idx in (t..n * n * n).step_by(threads) {
                    let (i, jk) = (idx / (n * n), idx % (n * n));
                    let (j, k) = (jk / n, jk % n);
                    reducers[i * n + j].update(x[i * n + k] * y[k * n + j]);
                }
            });
        }
    });
    let z: Vec<u64> = reducers.into_iter().map(|r| r.into_value()).collect();
    assert_eq!(z, z_ref, "reducer-based parallel multiply must be exact");
    println!(
        "\n{n}x{n} parallel multiply with height-3 reducers across {threads} threads: correct ✓"
    );
}
