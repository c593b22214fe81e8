(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1-3, Fig. 1 and the summary line).

   Environment:
     TQEC_EFFORT = quick | normal | full   (default normal)
     TQEC_SCALE  = integer divisor for instance sizes (default 1)
     TQEC_SEED   = random seed (default 42)
     TQEC_BENCHMARKS = comma-separated subset of benchmark names
                   (default all eight)
     TQEC_JOBS   = parallelism for the suite fan-out; each instance's
                   inner stages (placement multi-start, routing
                   batches) run inline in its task, and fan out
                   themselves only when one instance runs
                   (default: the machine's domain count; 1 = serial)
     TQEC_RESTARTS = annealing trajectories per placement (default 1)
     TQEC_EARLY_STOP = adaptive multi-start early-stop margin
                   ("0.05" = 5%); "off" disables early stopping
     TQEC_PARTITION = node cap for divide-and-conquer placement
                   (unset keeps single-die annealing)
     TQEC_FULLSIZE = set to run the largest instances at full size
     TQEC_DEBUG  = set to trace every stage on stderr
     TQEC_VERIFY = set (not "0") to validate every run
     All of them go through Experiments.config_from_env: a value it
     rejects exits 2 naming the variable (an unknown benchmark also
     lists the suite names).  Stage timings and router counters are
     bench/perf's to measure. *)

module Experiments = Tqec_compress.Experiments
module Pipeline = Tqec_compress.Pipeline

let () =
  let pipeline =
    { Tqec_compress.Knobs.defaults with effort = Tqec_place.Placer.Normal }
  in
  match Experiments.config_from_env ~pipeline () with
  | Error msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2
  | Ok config ->
      Printf.printf
        "TQEC bridge-compression benchmark harness (effort=%s, scale=%d)\n\n"
        (Tqec_compress.Knobs.effort_name
           config.Experiments.pipeline.Pipeline.effort)
        config.Experiments.scale;
      print_string (Experiments.render_all config)
