(* Fixed-size domain pool with a shared task queue.  See pool.mli for the
   determinism contract. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* Set while a domain is executing pool tasks; nested parallel_* calls
   check it and run serially instead of re-entering the queue. *)
let busy_key = Domain.DLS.new_key (fun () -> false)

let inside_task () = Domain.DLS.get busy_key

let worker pool () =
  Domain.DLS.set busy_key true;
  let rec loop () =
    Mutex.lock pool.lock;
    let rec next () =
      if pool.stop then None
      else if Queue.is_empty pool.queue then begin
        Condition.wait pool.work pool.lock;
        next ()
      end
      else Some (Queue.pop pool.queue)
    in
    let task = next () in
    Mutex.unlock pool.lock;
    match task with
    | None -> ()
    | Some task ->
        task ();
        loop ()
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  if jobs < 1 then invalid_arg "Engine.Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then
    pool.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []

(* ---- default pool ---- *)

let default_lock = Mutex.create ()
let default_pool = ref None
let requested_jobs = ref None

let default_jobs () =
  Mutex.lock default_lock;
  let j =
    match (!default_pool, !requested_jobs) with
    | Some p, _ -> p.jobs
    | None, Some j -> j
    | None, None -> Domain.recommended_domain_count ()
  in
  Mutex.unlock default_lock;
  j

let set_default_jobs j =
  if j < 1 then invalid_arg "Engine.Pool.set_default_jobs: jobs must be >= 1";
  Mutex.lock default_lock;
  let old = !default_pool in
  default_pool := None;
  requested_jobs := Some j;
  Mutex.unlock default_lock;
  match old with Some p -> shutdown p | None -> ()

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ?jobs:!requested_jobs () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  pool

let () =
  at_exit (fun () ->
      match !default_pool with
      | Some p ->
          default_pool := None;
          shutdown p
      | None -> ())

(* ---- parallel primitives ---- *)

module Obs = Sso_obs.Obs

(* Queue [task 0 .. task (n-1)] on the pool and collect the results.  The
   caller has already peeled off the serial fast paths. *)
let execute pool task n =
  begin
    let results = Array.make n None in
    (* Lowest failing task index wins, so the raised exception does not
       depend on scheduling order. *)
    let failure = Atomic.make None in
    let remaining = Atomic.make n in
    let fin_lock = Mutex.create () and fin_cond = Condition.create () in
    let run i =
      (try results.(i) <- Some (task i)
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         let rec record () =
           match Atomic.get failure with
           | Some (j, _, _) when j <= i -> ()
           | cur ->
               if not (Atomic.compare_and_set failure cur (Some (i, e, bt)))
               then record ()
         in
         record ());
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock fin_lock;
        Condition.broadcast fin_cond;
        Mutex.unlock fin_lock
      end
    in
    Mutex.lock pool.lock;
    for i = 0 to n - 1 do
      Queue.add (fun () -> run i) pool.queue
    done;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    (* The submitting domain works the queue too.  Only one domain submits
       top-level maps (nested calls are serial), so every queued task
       belongs to this call. *)
    Domain.DLS.set busy_key true;
    let rec drain () =
      Mutex.lock pool.lock;
      let task =
        if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue)
      in
      Mutex.unlock pool.lock;
      match task with
      | Some task ->
          task ();
          drain ()
      | None -> ()
    in
    drain ();
    Domain.DLS.set busy_key false;
    Mutex.lock fin_lock;
    while Atomic.get remaining > 0 do
      Condition.wait fin_cond fin_lock
    done;
    Mutex.unlock fin_lock;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_init ?pool n f =
  if n < 0 then invalid_arg "Engine.Pool.parallel_init: negative length";
  let pool = match pool with Some p -> p | None -> default () in
  if n = 0 then [||]
  else if inside_task () then Array.init n f
  else if not (Obs.tracing ()) then
    if pool.jobs = 1 || pool.stop || n = 1 then Array.init n f else execute pool f n
  else begin
    (* Tracing: pre-assign one stream slot per task, in submission order.
       Event keys then depend only on the task index — not on which domain
       runs a task or when — so the merged trace is identical at any
       --jobs.  The serial path wraps tasks the same way (and marks the
       domain busy so nested parallel calls degrade to Array.init exactly
       as they would on a worker). *)
    let base = Obs.reserve_slots n and depth = Obs.span_depth () in
    let task i = Obs.in_task ~depth (base + i) (fun () -> f i) in
    Fun.protect ~finally:Obs.fresh_stream (fun () ->
        if pool.jobs = 1 || pool.stop || n = 1 then begin
          Domain.DLS.set busy_key true;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set busy_key false)
            (fun () -> Array.init n task)
        end
        else execute pool task n)
  end

let parallel_map ?pool f input = parallel_init ?pool (Array.length input) (fun i -> f input.(i))

let parallel_list_map ?pool f l =
  Array.to_list (parallel_map ?pool f (Array.of_list l))
