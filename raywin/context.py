"""Engine-level Ray Data context tuning.

Documented knobs:

``shuffle_strategy = SORT_SHUFFLE_PUSH_BASED`` — every key exchange
goes through ``co_partition`` (stages/shuffle.py), one
``sort(key hash).map_batches(kernel)`` that rides Ray Data's sort shuffle.
The default pull-based sort serializes map-finish ->
reduce-start; the push-based variant pipelines merge with map and cut the
1M-row mixed-codec flagship 14.3 s -> 11.5 s at 32 CPUs (round 5, min-of-2,
same session pattern).  Values verified unchanged: the kernel receives
whole co-partitioned groups either way.

``op_resource_reservation_enabled = False`` — Ray Data's streaming executor
reserves a fixed share of the CPU budget per operator
(``op_resource_reservation_ratio = 0.5`` by default).  In this engine's
flagship shape — an expensive decode ``map_batches`` feeding a union +
co-partition sort + kernel — the reservation starved the decode operator to
parallelism ≈ 1 once real JPEG entropy decode made it CPU-heavy
(``ds.stats()``: 222.7 s of remote wall inside a 224.4 s operator window at
8 CPUs).  Same-session controlled measurements on the mixed png/jpeg/qimg
1M-row table at 8 CPUs:

    task-pool decode, reservation ON   252.8 s
    fixed actor pool (n-2), ON          70.8 s
    autoscaling pool (1, n-2), ON      288.2 s   (never scaled up)
    task-pool decode, reservation OFF   43.7 s   <- engine default

On kernel-dominated pipelines (the 10M png/qimg scale leg) ON vs OFF is a
wash (interleaved runs 265/182 s OFF vs 395/220 s ON, trend dominated by
page-cache warmup), so the engine turns reservation off globally for its
sessions.  The flag is STICKY on the session's DataContext — execution
happens later (datasets are lazy), so it cannot be scoped-and-restored.

``_max_num_blocks_in_streaming_gen_buffer = 128`` (default 2) — deadlock
fix, found round 5 when the full bench wedged twice at 8 CPUs.  Ray
2.49's ``AllToAllOperator.all_inputs_done()`` runs the whole sort
``bulk_fn`` SYNCHRONOUSLY on the streaming executor's scheduling-loop
thread (base_physical_operator.py:110-119), and that loop is also the
only consumer of every other operator's streaming-generator outputs.  In
a multi-branch plan (e.g. online_serving: three ReadParquet branches,
two sorts, a union), one branch's sort can reach all-inputs-done while
another branch's read tasks are still running; with the default 2-block
generator buffer those readers pause in
``GeneratorBackpressureWaiter::WaitUntilObjectConsumed`` after two
unconsumed blocks — STILL HOLDING THEIR CPU SLOT.  Once paused readers
hold every slot, the sort's map tasks can never schedule and the blocked
loop never drains the readers: verified deadlock (faulthandler stacks of
all 8 workers parked in WaitUntilObjectConsumed; ray status 8/8 CPU with
the sort's tasks pending).  With a 128-block buffer a producer task
finishes its fragment and RELEASES the CPU instead of pausing mid-task —
read tasks here yield 2-8 blocks, map tasks one block per output batch.
Extra object-store footprint is bounded by (running tasks x blocks per
task) and spillable; new task dispatch is paused anyway while a bulk_fn
blocks the loop.  Plans whose producers can exceed 128 blocks per task
(the 10M decode legs: ~153) are single-exchange shapes where the sort
only starts after every upstream task has completed, so no producer can
be mid-flight while the loop is blocked.

Buffer-size A/B (round 5, idle machine, 10M-row skew leg at 32 CPUs,
min-of-2 in fresh interleaved processes): buf=2 90.2 s, buf=16 90.1 s,
buf=128 83.2 s — indistinguishable within sandbox noise, so the generous
value costs nothing on the buffer-heaviest leg; buf=16 also passed 4/4
full-bench wedge trials at 8 CPUs, i.e. the fix has an 8x margin over the
2-8 blocks wedge-shape producers actually yield.  The value is fixed:
``tests/test_context.py`` runs the wedge shape (two reads whose tasks
yield several blocks each, two sorts, a union) at 1 CPU, which finishes
in seconds at 128 and wedges at 2.

Partition sizing (no knobs): parquet reads go through
``sources.io.read_parquet``, which asks for one block per CPU (a read
task cuts its output at ``target_max_block_size`` by itself), and
``co_partition`` calls its fn once per sort output
block, so the kernel's call count follows the exchange's input blocks
(``_BUNDLE_ROWS`` rows or more each) instead of a fixed bucket count.  The
8k-row mixed-codec flagship at 1 CPU used to run 45 tasks (fixed 32-block
reads and 32 hash buckets) of about 1 ms of work each; it now reads one
block per side into one exchange partition, in 7 tasks.  perfbench
``img_backfill`` at 1 CPU (seed 3, 10 interleaved pairs, medians): 2643
-> 4632 rows/ref-CPU-s, ``setup_s`` 6.0 -> 5.3 s.

One execution per pipeline: most of the per-plan floor left after that was
a second run of the whole pipeline.  ``Dataset.to_arrow_refs()`` (and any
``schema()`` call) on a plan whose schema Ray cannot infer executes a
limit-1 copy of the plan, and a sort cannot stop at one block, so read,
decode, exchange and kernel ran twice.  raywin records every schema it
knows statically in Ray's own plan (``stages.shuffle.declare_schema``), so
those calls read it instead.  perfbench ``img_backfill`` at 1 CPU, seed 3:
2 -> 1 executions per iteration, traced ``sched_overhead_s`` 0.98 -> 0.12
s, and 4548 -> 8266 rows/ref-CPU-s (medians of 10 interleaved pairs).
"""

from __future__ import annotations


def tune_data_context() -> None:
    """Apply the engine's Ray Data context defaults (idempotent, sticky)."""
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.op_resource_reservation_enabled = False
    # Deadlock fix (see module docstring): producer tasks must be able to
    # finish and release their CPU while an AllToAll bulk_fn blocks the
    # scheduling loop, instead of pausing on a 2-block generator buffer.
    ctx._max_num_blocks_in_streaming_gen_buffer = 128
    try:
        from ray.data.context import ShuffleStrategy

        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    except (ImportError, AttributeError):  # older/newer Ray: keep default
        pass
