/* C API for the checkpoint runtime, mirroring the VELOC C interface the
 * paper's Listing 1 is written against (VELOC_Init / VELOC_Mem_protect /
 * VELOC_Checkpoint / VELOC_Restart / VELOC_Recover_size plus the paper's
 * new VELOC_Prefetch_enqueue / VELOC_Prefetch_start). Prefixed VELOCX_ to
 * avoid colliding with a real libveloc.
 *
 * The shim owns the whole stack (simulated cluster, durable stores, engine)
 * as a process-global context configured from a key=value string:
 *
 *   eviction = score, gpudirect = false, discard_after_restore = false,
 *   terminal_tier = <tier name>  (default: the first durable tier),
 *   tenants = <spec>, trace*, telemetry* keys, and the tier layout, either
 *   tiers = <spec>  (core/tier_stack.hpp grammar, ';'-separated) or the
 *   default stack's shorthand keys
 *   gpu_cache = 4Mi, host_cache = 32Mi, ssd_dir = /path (empty = in memory)
 *   which expand to gpu:gpucache:<gpu_cache>;host:cache:<host_cache>;
 *   ssd:durable[:file=<ssd_dir>];pfs:durable. Setting a shorthand key
 *   together with `tiers` is VELOCX_EINVAL.
 *
 * All functions return VELOCX_SUCCESS (0) or a negative error code;
 * VELOCX_Error_string() describes the most recent failure on this thread.
 */
#ifndef CKPT_API_VELOC_C_H_
#define CKPT_API_VELOC_C_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

enum {
  VELOCX_SUCCESS = 0,
  VELOCX_EINVAL = -1,      /* bad argument / bad config */
  VELOCX_ENOTFOUND = -2,   /* unknown checkpoint version */
  VELOCX_EEXIST = -3,      /* version already written */
  VELOCX_ENOMEM = -4,      /* device allocation failure */
  VELOCX_EIO = -5,         /* storage failure / corruption */
  VELOCX_ESHUTDOWN = -6,   /* runtime finalized */
  VELOCX_EINTERNAL = -7,   /* any other failure */
};

/* Builds the global runtime for `num_ranks` simulated GPU processes.
 * `config_text` may be NULL for defaults. Fails if already initialized. */
int VELOCX_Init(const char* config_text, int num_ranks);

/* Tears the runtime down; waits for in-flight transfers. Idempotent. */
int VELOCX_Finalize(void);

/* Device memory helpers so pure-C clients can obtain "GPU" buffers. */
int VELOCX_Device_alloc(int rank, size_t size, void** out_ptr);
int VELOCX_Device_free(int rank, void* ptr);

/* Classic VELOC primitives. */
int VELOCX_Mem_protect(int rank, int region_id, void* ptr, size_t size);
int VELOCX_Mem_unprotect(int rank, int region_id);
int VELOCX_Checkpoint(int rank, const char* name, uint64_t version);
int VELOCX_Restart(int rank, uint64_t version);
int VELOCX_Recover_size(int rank, uint64_t version, int region_id,
                        size_t* out_size);
/* Blocks until every checkpoint of `rank` is durable (VELOC's
 * VELOC_Checkpoint_wait). */
int VELOCX_Checkpoint_wait(int rank);

/* The paper's new primitives (Listing 1, highlighted). */
int VELOCX_Prefetch_enqueue(int rank, uint64_t version);
int VELOCX_Prefetch_start(int rank);

/* Multi-tenant service mode. A `tenants` config key at Init carves the
 * ranks into contiguous per-job blocks sharing one engine:
 *
 *   tenants = name ":" quota [":" weight] (";" ...)*
 *   e.g.    tenants = rtm:24Mi;synth:8Mi:0.5
 *
 * quota caps the tenant's total cache bytes (0 = unlimited); weight scales
 * its fair share of PCIe/NVMe bandwidth under contention. Without the key
 * the runtime is single-tenant and behaves exactly as before. */

/* Resolves the tenant named at Init to its id (for Tenant_close and
 * metric correlation). VELOCX_ENOTFOUND for unknown names. */
int VELOCX_Tenant_open(const char* name, int* out_id);

/* Quiesces a tenant: waits for its in-flight flushes, then rejects new
 * checkpoint/restore/prefetch calls on its ranks. Other tenants are
 * unaffected. */
int VELOCX_Tenant_close(int tenant_id);

/* Observability. Tracing is configured through the Init config string
 * (trace = true, trace_out = /path/trace.json, trace_capacity = 16k) or the
 * CKPT_TRACE / CKPT_TRACE_OUT / CKPT_TRACE_CAPACITY environment knobs;
 * config keys win. When a trace output path is configured, Finalize dumps
 * the trace there automatically.
 *
 * Live telemetry is configured the same way (config keys override the
 * CKPT_TELEMETRY* environment seed):
 *   telemetry = true            start the background sampler with the engine
 *   telemetry_period_ms = 100   sampler tick period
 *   telemetry_window = 128      sample-ring capacity
 *   telemetry_out = /path/run   flight-recorder dump path prefix
 *   telemetry_watchdog = true   stall detectors on each tick
 *   telemetry_stall_ms = 2000   FSM dwell bound before a stall trips
 *   telemetry_stall_windows = 3 consecutive no-progress samples to trip
 *   telemetry_strict = false    a watchdog trip fails VELOCX_Finalize (EIO)
 * When the watchdog trips and telemetry_out is set, the flight recorder
 * dumps <out>.trace.json, <out>.window.json, <out>.openmetrics.txt and
 * <out>.metrics.json once per run. */

/* Writes the engine metrics snapshot (per-rank and merged counters, latency
 * histograms, restore series) as JSON to `path`. */
int VELOCX_Metrics_snapshot_json(const char* path);

/* Dumps the recorded trace as Chrome trace-event JSON (Perfetto-loadable)
 * to `path`; NULL or "" uses the configured trace output path. */
int VELOCX_Trace_dump(const char* path);

/* Renders the current engine telemetry in OpenMetrics text format into
 * `buf` (NUL-terminated). Serves the background sampler's newest sample
 * when the sampler is running, otherwise probes the engine on the spot.
 * `*out_len` (may be NULL) receives the full payload length excluding the
 * NUL, even on failure — call with cap 0 to size a buffer, then retry with
 * *out_len + 1 bytes. Returns VELOCX_EINVAL when `buf` is too small (the
 * buffer then holds a truncated, NUL-terminated prefix). */
int VELOCX_Telemetry_scrape(char* buf, size_t cap, size_t* out_len);

/* Description of the most recent error on the calling thread ("" if none). */
const char* VELOCX_Error_string(void);

#ifdef __cplusplus
}
#endif

#endif /* CKPT_API_VELOC_C_H_ */
