(* Persistent work-stealing scheduler over OCaml 5 domains.

   Worker domains are spawned once per pool (the process-wide default
   pool grows on demand up to the largest [jobs] ever requested) and
   park on a condition variable when idle, so an idle pool costs
   nothing.  Each worker owns a Chase–Lev deque ({!Ws_deque}); tasks
   submitted from inside a worker go to its own deque (LIFO for the
   owner, so nested fork-join stays depth-first), tasks submitted from
   any other domain go through a mutex-protected FIFO injector, and
   idle workers pull injector work or steal from randomly chosen
   victims.  A caller blocked on {!map} *helps* — it drains its own
   deque, the injector, and victims' deques until its batch completes —
   so nested parallelism composes without adding domains: suite
   instances × annealing lanes × routing batches all feed one pool, and
   a 1-worker pool can still run a jobs=8 nested workload without
   deadlock.

   Determinism: the scheduler decides only *where and when* tasks run.
   Each {!map} result is written into the slot of its submission index,
   exceptions are re-raised for the lowest failing index, and nothing
   a task can observe depends on which domain executed it (callers keep
   their RNG streams keyed by task index, never by worker).  Parallel
   runs are therefore bit-identical to serial ones whenever the tasks
   themselves are deterministic.

   Lost-wakeup freedom: a sleeper registers in [waiters] (an Atomic)
   and re-checks its wake condition *after* registering, while holding
   [lock]; a waker makes its condition true *before* reading [waiters].
   Under OCaml's sequentially consistent atomics, either the waker sees
   the registration (and broadcasts under the same lock), or the
   sleeper's re-check sees the condition — there is no interleaving in
   which both miss. *)

(* env-read: call-time capture — re-read on every call, never frozen at
   module load, so a long-running daemon sees updates and per-request
   [jobs] overrides (which [map] accepts) bypass it entirely.  Worker
   count never changes results, only speed. *)
let default_jobs () =
  match Sys.getenv_opt "TQEC_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 1 -> v
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

type task = unit -> unit

let idle_task : task = ignore

type worker = {
  wid : int;
  deque : task Ws_deque.t;
  (* Owner-written counters; {!stats} reads them racily (stale values
     only make the totals slightly out of date, never wrong-typed). *)
  mutable n_exec : int;
  mutable n_steal : int;
  mutable n_park : int;
}

type t = {
  mutable workers : worker array;
  (* [workers] only ever grows, under [lock]; thieves read it racily
     and may see a stale (shorter) array, which just narrows one
     steal sweep. *)
  mutable domains : unit Domain.t list;
  lock : Mutex.t;
  cond : Condition.t;
  waiters : int Atomic.t;
  inj : task Queue.t; (* guarded by [lock] *)
  inj_size : int Atomic.t; (* lock-free emptiness hint for [inj] *)
  mutable stopping : bool; (* written under [lock] *)
  max_workers : int;
  mutable spawn_failed : bool; (* degrade quietly, don't retry forever *)
  mutable spawn_error : string option; (* why, for [stats] *)
  (* Counters for non-worker participants (atomics: many writers). *)
  h_exec : int Atomic.t;
  h_steal : int Atomic.t;
  h_park : int Atomic.t;
  submitted : int Atomic.t;
  injected : int Atomic.t;
}

(* Which pool/worker the current domain belongs to, if any; routes
   nested submissions to the worker's own deque. *)
let current_key : (t * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let self_worker p =
  match Domain.DLS.get current_key with
  | Some (p', w) when p' == p -> Some w
  | _ -> None

(* ---- wakeups ---------------------------------------------------- *)

let work_available p =
  Atomic.get p.inj_size > 0
  || Array.exists (fun w -> Ws_deque.size w.deque > 0) p.workers

(* Call after making new work or a waited-on condition visible. *)
let wake p =
  if Atomic.get p.waiters > 0 then begin
    Mutex.lock p.lock;
    Condition.broadcast p.cond;
    Mutex.unlock p.lock
  end

(* ---- task acquisition ------------------------------------------- *)

let try_injector p =
  if Atomic.get p.inj_size = 0 then None
  else begin
    Mutex.lock p.lock;
    let r =
      if Queue.is_empty p.inj then None
      else begin
        Atomic.decr p.inj_size;
        Some (Queue.pop p.inj)
      end
    in
    Mutex.unlock p.lock;
    r
  end

(* Victim order only affects scheduling, never results, so any cheap
   generator will do (xorshift). *)
let next_rand seed =
  let s = !seed in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  let s = if s = 0 then 0x2545F491 else s in
  seed := s;
  s land max_int

(* One steal attempt per victim, starting from a random index.  A lost
   CAS race reads as "victim empty" and we move on; the caller's
   park-time double-check ([work_available]) catches anything left. *)
let try_steal p ~self ~seed =
  let ws = p.workers in
  let n = Array.length ws in
  if n = 0 then None
  else begin
    let start = next_rand seed mod n in
    let rec go k =
      if k >= n then None
      else begin
        let w = ws.((start + k) mod n) in
        let skip = match self with Some s -> s == w | None -> false in
        if skip then go (k + 1)
        else
          match Ws_deque.steal w.deque with
          | Some _ as r ->
              (match self with
              | Some s -> s.n_steal <- s.n_steal + 1
              | None -> Atomic.incr p.h_steal);
              r
          | None -> go (k + 1)
      end
    in
    go 0
  end

let find_task p ~self ~seed =
  let own = match self with Some w -> Ws_deque.pop w.deque | None -> None in
  match own with
  | Some _ as r -> r
  | None -> (
      match try_injector p with
      | Some _ as r -> r
      | None -> try_steal p ~self ~seed)

(* ---- worker main loop ------------------------------------------- *)

(* Submitted tasks never raise: [map] wraps the user function and
   captures the outcome. *)
let rec worker_loop p w seed =
  match find_task p ~self:(Some w) ~seed with
  | Some task ->
      w.n_exec <- w.n_exec + 1;
      task ();
      worker_loop p w seed
  | None ->
      Mutex.lock p.lock;
      Atomic.incr p.waiters;
      let exit_now =
        if work_available p then false
        else if p.stopping then true
        else begin
          w.n_park <- w.n_park + 1;
          Condition.wait p.cond p.lock;
          false
        end
      in
      Atomic.decr p.waiters;
      Mutex.unlock p.lock;
      if not exit_now then worker_loop p w seed

(* ---- helping (blocked parents) ---------------------------------- *)

(* Run pool tasks on the calling domain until [until ()] holds.  This
   is how a parent "waits": it can execute its own children (or any
   other pending task, including unrelated batches — help-first
   scheduling trades a little latency entanglement for deadlock
   freedom), and parks only when the whole pool looks empty. *)
let help p ~until =
  let self = self_worker p in
  let seed = ref (1 + ((Domain.self () :> int) * 0x9E3779B9)) in
  let rec go () =
    if not (until ()) then begin
      match find_task p ~self ~seed with
      | Some task ->
          (match self with
          | Some w -> w.n_exec <- w.n_exec + 1
          | None -> Atomic.incr p.h_exec);
          task ();
          go ()
      | None ->
          Mutex.lock p.lock;
          Atomic.incr p.waiters;
          if (not (until ())) && not (work_available p) then begin
            (match self with
            | Some w -> w.n_park <- w.n_park + 1
            | None -> Atomic.incr p.h_park);
            Condition.wait p.cond p.lock
          end;
          Atomic.decr p.waiters;
          Mutex.unlock p.lock;
          go ()
    end
  in
  go ()

(* ---- submission ------------------------------------------------- *)

let submit p task =
  Atomic.incr p.submitted;
  (match self_worker p with
  | Some w -> Ws_deque.push w.deque task
  | None ->
      Mutex.lock p.lock;
      Queue.push task p.inj;
      Atomic.incr p.inj_size;
      Mutex.unlock p.lock;
      Atomic.incr p.injected);
  wake p

(* ---- pool construction ------------------------------------------ *)

let make_pool ~max_workers =
  {
    workers = [||];
    domains = [];
    lock = Mutex.create ();
    cond = Condition.create ();
    waiters = Atomic.make 0;
    inj = Queue.create ();
    inj_size = Atomic.make 0;
    stopping = false;
    max_workers;
    spawn_failed = false;
    spawn_error = None;
    h_exec = Atomic.make 0;
    h_steal = Atomic.make 0;
    h_park = Atomic.make 0;
    submitted = Atomic.make 0;
    injected = Atomic.make 0;
  }

(* Called with [p.lock] held. *)
let spawn_worker p =
  let w =
    {
      wid = Array.length p.workers;
      deque = Ws_deque.create ~dummy:idle_task ();
      n_exec = 0;
      n_steal = 0;
      n_park = 0;
    }
  in
  let d =
    Domain.spawn (fun () ->
        Domain.DLS.set current_key (Some (p, w));
        worker_loop p w (ref (1 + (w.wid * 0x9E3779B9))))
  in
  (* Publish after the spawn succeeded so a failed spawn leaves no
     ghost worker for thieves to scan. *)
  p.workers <- Array.append p.workers [| w |];
  p.domains <- d :: p.domains

(* Grow (never shrink) to [want] workers, capped by [max_workers].  A
   [Domain.spawn] failure (domain/resource limit) degrades to fewer
   workers — callers still complete by helping. *)
let ensure_workers p want =
  let want = min want p.max_workers in
  if Array.length p.workers < want && not p.spawn_failed then begin
    Mutex.lock p.lock;
    (* swallow: spawn failure (domain/resource limit) is an expected
       degradation, not an error — but the cause is kept on the pool
       and surfaced through [stats] so operators can see why the pool
       is running under-provisioned. *)
    (try
       while Array.length p.workers < want && not p.spawn_failed do
         spawn_worker p
       done
     with e ->
       p.spawn_failed <- true;
       p.spawn_error <- Some (Printexc.to_string e));
    Mutex.unlock p.lock
  end

let create ~workers =
  let p = make_pool ~max_workers:(max 0 workers) in
  ensure_workers p workers;
  p

let shutdown p =
  Mutex.lock p.lock;
  p.stopping <- true;
  Condition.broadcast p.cond;
  Mutex.unlock p.lock;
  let ds = p.domains in
  p.domains <- [];
  List.iter Domain.join ds

(* The process-wide pool.  [max_workers] respects OCaml's 128-domain
   limit with headroom for the main domain and user-spawned ones.
   Never shut down: parked domains cost nothing, and a process exit
   with domains parked on [Condition.wait] is clean. *)
let global_pool = lazy (make_pool ~max_workers:118)

let get_pool = function Some p -> p | None -> Lazy.force global_pool

(* ---- fork-join fronts ------------------------------------------- *)

let map ?pool ?jobs f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
    let jobs = min jobs n in
    if jobs = 1 then Array.map f arr
    else begin
      let p = get_pool pool in
      ensure_workers p (jobs - 1);
      let results = Array.make n None in
      let remaining = Atomic.make n in
      for i = 0 to n - 1 do
        submit p (fun () ->
            let r =
              try Ok (f arr.(i))
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- Some r;
            (* The batch-complete edge is the parent's wake condition;
               the decrement publishes the slot write (see module
               comment on wakeups). *)
            if Atomic.fetch_and_add remaining (-1) = 1 then wake p)
      done;
      help p ~until:(fun () -> Atomic.get remaining = 0);
      (* Every task ran (the pool stays reusable); the lowest-index
         failure is re-raised with its original backtrace, matching
         what the serial path would have thrown first. *)
      Array.iter
        (function
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | Some (Ok _) | None -> ())
        results;
      Array.map
        (function
          | Some (Ok v) -> v
          (* partial: the completion barrier above filled every slot
             and re-raised any Error; an empty slot here is a
             scheduler bug, not an input condition *)
          | Some (Error _) | None -> assert false)
        results
    end
  end

(* ---- observability ---------------------------------------------- *)

type stats = {
  workers : int;
  executed : int;
  stolen : int;
  injected : int;
  parks : int;
  submitted : int;
  spawn_error : string option;
}

let stats ?pool () =
  let p = get_pool pool in
  let ws = p.workers in
  let executed = ref (Atomic.get p.h_exec)
  and stolen = ref (Atomic.get p.h_steal)
  and parks = ref (Atomic.get p.h_park) in
  Array.iter
    (fun w ->
      executed := !executed + w.n_exec;
      stolen := !stolen + w.n_steal;
      parks := !parks + w.n_park)
    ws;
  {
    workers = Array.length ws;
    executed = !executed;
    stolen = !stolen;
    injected = Atomic.get p.injected;
    parks = !parks;
    submitted = Atomic.get p.submitted;
    spawn_error = p.spawn_error;
  }
