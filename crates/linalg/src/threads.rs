//! Effective worker-pool sizing shared by every fan-out in the workspace.

use std::sync::OnceLock;

/// Effective thread-pool width used by the parallel kernels (Gram bands,
/// kernel-model predict batches, the model-generation grid, columnar
/// chunk scans).
///
/// Defaults to the machine's available parallelism. The `F2PM_THREADS`
/// environment variable overrides it — useful for pinning bench runs to
/// a fixed width so BENCH JSONs stay comparable across machines, and for
/// forcing serial execution when debugging. The value is resolved once
/// and cached for the life of the process.
pub fn pool_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("F2PM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_threads_is_positive_and_stable() {
        let a = pool_threads();
        assert!(a >= 1);
        assert_eq!(a, pool_threads(), "cached value must not change");
    }
}
