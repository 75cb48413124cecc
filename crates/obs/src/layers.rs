//! The span-category → pipeline-layer mapping.
//!
//! Exporters group spans into one track per rank × layer; the layer names
//! follow the paper's pipeline: GPU (kernels, device flag writes, and the
//! device-initiated symmetric-heap put and its signal), host (host-side
//! `MPI_Pready`, recovery replay), progression engine, UCX (puts), and the
//! network fabric.

/// The pipeline layer a span category belongs to. Unknown categories map
/// to `"other"` so exporters never drop a span.
pub fn layer_of(category: &str) -> &'static str {
    match category {
        "kernel" | "stream_sync" | "pready_flag" | "shmem_put" | "shmem_signal" => "gpu",
        "pready_host" | "recover_replay" => "host",
        "pe_post" | "coll_step" => "pe",
        "put" | "put_complete" => "ucx",
        "wire" => "net",
        _ => "other",
    }
}

/// Deterministic track ordering for a layer (Chrome `tid`).
pub fn layer_tid(layer: &str) -> u64 {
    match layer {
        "gpu" => 1,
        "host" => 2,
        "pe" => 3,
        "ucx" => 4,
        "net" => 5,
        _ => 6,
    }
}

/// True for categories only recorded at causal trace level (2) — the
/// handoff spans that do not exist in the level-1 baseline stream. Used to
/// filter causal-level traces back to the frozen base-category view.
pub fn is_causal_category(category: &str) -> bool {
    matches!(
        category,
        "pready_flag"
            | "pready_host"
            | "pe_post"
            | "put"
            | "put_complete"
            | "coll_step"
            | "shmem_put"
            | "shmem_signal"
            | "recover_replay"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_categories_are_not_causal_only() {
        for c in ["kernel", "stream_sync", "wire"] {
            assert!(!is_causal_category(c), "{c}");
        }
        for c in [
            "pready_flag",
            "pready_host",
            "pe_post",
            "put",
            "put_complete",
            "coll_step",
            "shmem_put",
            "shmem_signal",
            "recover_replay",
        ] {
            assert!(is_causal_category(c), "{c}");
        }
    }

    /// Every category a `record*` call under `crates/*/src` records.
    #[test]
    fn every_known_category_has_a_layer() {
        for c in [
            "kernel",
            "stream_sync",
            "pready_flag",
            "pready_host",
            "pe_post",
            "coll_step",
            "put",
            "put_complete",
            "wire",
            "shmem_put",
            "shmem_signal",
            "recover_replay",
        ] {
            assert_ne!(layer_of(c), "other", "{c}");
        }
        assert_eq!(layer_of("mystery"), "other");
        assert_eq!(layer_tid("gpu"), 1);
    }
}
