//! Criterion bench for the Cholesky maintenance kernels behind the
//! warm-start retraining engine (DESIGN.md §15): one sliding-window
//! shift on the LS-SVM block `A = K + I/γ` — retire the k oldest rows,
//! border k (or k − 1) newest in — against the cold refactorization of
//! the shifted matrix, plus the two-RHS dual-refresh solve.
//!
//! Run with `cargo bench -p f2pm-bench --bench lssvm_update`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use f2pm_linalg::{Cholesky, Matrix};
use f2pm_ml::Kernel;

fn sample(n: usize, p: usize, phase: f64) -> Matrix {
    let mut x = Matrix::zeros(n, p);
    for i in 0..n {
        for j in 0..p {
            x[(i, j)] = ((i * p + j) as f64 * 0.37 + phase).sin() * 2.0 + (i as f64 * 0.013).cos();
        }
    }
    x
}

fn submatrix(a: &Matrix, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
    let mut m = Matrix::zeros(nr, nc);
    for i in 0..nr {
        m.row_mut(i).copy_from_slice(&a.row(r0 + i)[c0..c0 + nc]);
    }
    m
}

/// `A = K + I/γ` over `x` (the LS-SVM block at the suite's γ = 10).
fn lssvm_block(x: &Matrix) -> Matrix {
    let mut a = Kernel::Rbf { gamma: 0.03 }.matrix(x);
    for i in 0..a.rows() {
        a[(i, i)] += 0.1;
    }
    a
}

fn bench_window_shift(c: &mut Criterion) {
    let mut group = c.benchmark_group("lssvm_update");
    group.sample_size(10);
    let k = 8usize; // one run's worth of rows at the gated workload shape
    for n in [1024usize, 2000] {
        // n + k rows: the first k retire, the last k enter.
        let x = sample(n + k, 30, 0.0);
        let a_full = lssvm_block(&x);
        // The stale factor covers rows [0, n); the shifted window is
        // rows [k, n + k).
        let stale = Cholesky::factor(&submatrix(&a_full, 0, 0, n, n)).expect("spd");
        let shifted = submatrix(&a_full, k, k, n, n);
        let border_b = submatrix(&a_full, k, n, n - k, k);
        let border_c = submatrix(&a_full, n, n, k, k);

        group.bench_with_input(BenchmarkId::new("warm_shift", n), &stale, |b, stale| {
            b.iter(|| {
                let mut f = stale.clone();
                f.shift_window(k, &border_b, &border_c).expect("shift");
                f
            })
        });
        // The shape a live window mostly sees: runs differ in row count,
        // so the rows out and the rows in rarely match.
        let border_b_short = submatrix(&a_full, k, n, n - k, k - 1);
        let border_c_short = submatrix(&a_full, n, n, k - 1, k - 1);
        group.bench_with_input(
            BenchmarkId::new("warm_shift_unequal", n),
            &stale,
            |b, stale| {
                b.iter(|| {
                    let mut f = stale.clone();
                    f.shift_window(k, &border_b_short, &border_c_short)
                        .expect("shift");
                    f
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("cold_factor", n), &shifted, |b, a| {
            b.iter(|| Cholesky::factor(a).expect("spd"))
        });
        // The dual-refresh solve the engine runs after every shift:
        // two interleaved right-hand sides (1 | y).
        let mut rhs = Matrix::zeros(n, 2);
        for i in 0..n {
            rhs[(i, 0)] = 1.0;
            rhs[(i, 1)] = (i as f64 * 0.11).sin();
        }
        group.bench_with_input(BenchmarkId::new("solve_2rhs", n), &stale, |b, f| {
            b.iter(|| f.solve_multi(&rhs).expect("solve"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_shift);
criterion_main!(benches);
