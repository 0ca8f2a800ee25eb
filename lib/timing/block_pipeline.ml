module Block_prog = Bisa_isa.Block_prog
module Block_exec = Bisa_sim.Block_exec
module Cache = Bisa_uarch.Cache
module Block_pred = Bisa_uarch.Block_pred

(* One in-flight timing simulation, advanced a fetched block at a time.
   All loop state of the original monolithic run loop lives here so a run
   can be suspended between steps, checkpointed, and resumed exactly. *)
type session = {
  cfg : Config.t;
  prog : Block_prog.t;
  pd : Predecode.blocks;
  m : Metrics.t;
  engine : Engine.t;
  exec : Block_exec.t;
  (* Compiled threaded-code executor bound to [exec]'s state; [None] only
     for the interpreter reference leg.  Both backends mutate the same
     record, so checkpoints and counters are backend-agnostic. *)
  cexec : Bisa_sim.Compile.Block.t option;
  icache : Cache.t option;
  pred : Block_pred.t;
  probe : Bisa_obs.Probe.t;
  (* Observation off stays allocation-free: pinned by the golden "null
     probe is allocation-free" and timing "steady-state allocation" tests. *)
  tracing : bool;
  inj : Bisa_uarch.Inject.t option;
  mutable next_fetch : int;
  (* The youngest committed block, its terminator's resolve time, its
     predicted successor, and its resolved trap direction — prediction
     correctness is judged when the next architectural successor is
     known.  Flattened to scalars (-1 = absent; [p_dir]: -1 unresolved,
     0 not-taken, 1 taken) so the steady-state step allocates nothing;
     checkpoints reconstruct the original option encoding. *)
  mutable p_block : int;
  mutable p_resolve : int;
  mutable p_pred : int;
  mutable p_dir : int;
  (* Training is (committed block -> next committed block); -1 = none. *)
  mutable last_committed : int;
  (* After a fault squash, fetch is forced to the fault target. *)
  mutable forced : bool;
  mutable running : bool;
}

let session ?(probe = Bisa_obs.Probe.null) ~tables:pd ~code (cfg : Config.t)
    (prog : Block_prog.t) : session =
  let engine = Engine.create cfg in
  let exec = Block_exec.create prog in
  Block_exec.set_budget exec cfg.op_budget;
  let cexec = Option.map (fun c -> Bisa_sim.Compile.Block.bind c exec) code in
  let icache = Option.map Cache.create cfg.icache in
  let pred = Block_pred.create cfg.block_pred prog in
  (* One branch decides all event emission: with the null probe nothing
     in the stepping path behaves (or allocates) differently. *)
  let tracing = not (Bisa_obs.Probe.is_null probe) in
  if tracing then begin
    Option.iter (fun c -> Cache.set_hook c probe.Bisa_obs.Probe.icache_access) icache;
    Option.iter
      (fun c -> Cache.set_hook c probe.Bisa_obs.Probe.dcache_access)
      (Engine.dcache engine);
    Block_pred.set_btb_hook pred probe.Bisa_obs.Probe.btb_lookup
  end;
  {
    cfg;
    prog;
    pd;
    m = Metrics.create ();
    engine;
    exec;
    cexec;
    icache;
    pred;
    probe;
    tracing;
    inj = cfg.inject;
    next_fetch = 0;
    p_block = -1;
    p_resolve = 0;
    p_pred = -1;
    p_dir = -1;
    last_committed = -1;
    forced = false;
    running = true;
  }

(* Account one executed block: fetch it through the icache, run its slot
   range through the engine, then squash it or commit it and train the
   predictor.  [dir] is the resolved trap direction (-1 none, 0 not
   taken, 1 taken). *)
let account s ~block ~ops_executed ~squashed ~(mem_addrs : int array) ~dir =
  let cfg = s.cfg and m = s.m and prog = s.prog and probe = s.probe in
  let tracing = s.tracing in
  if cfg.predictor = Config.Perfect && squashed then
    (* A perfect front end fetches the fault-free variant directly: the
       squash hop costs nothing and is not even fetched. *)
    ()
  else begin
    let fc = ref s.next_fetch in
    (match s.icache with
    | Some c ->
      let misses =
        Cache.access_range c prog.block_addr.(block)
          (Block_prog.block_bytes prog.blocks.(block))
      in
      if misses > 0 then fc := !fc + (misses * cfg.l2_latency);
      (* Injected transient fault: drop the line just fetched. *)
      (match s.inj with
      | Some i when Bisa_uarch.Inject.evict_line i ->
        Cache.evict c prog.block_addr.(block)
      | _ -> ())
    | None -> ());
    m.fetch_units <- m.fetch_units + 1;
    (* The unit is a slot range of the predecoded table: the body
       elements actually executed, plus the terminator slot when the
       block was not squashed. *)
    let lo = s.pd.Predecode.first.(block) in
    let term = if squashed then -1 else s.pd.Predecode.first.(block + 1) - 1 in
    let nops = ops_executed + (if squashed then 0 else 1) in
    if tracing then
      probe.Bisa_obs.Probe.unit_start ~cycle:!fc ~addr:prog.block_addr.(block)
        ~ops:nops;
    let want = !fc + cfg.decode_depth in
    let dispatch = Engine.admit s.engine ~want ~op_count:nops in
    Engine.run_unit s.engine ~dispatch ~commit:(not squashed) s.pd.Predecode.tab
      ~lo ~len:ops_executed ~term ~mem_addrs ~mem_off:0;
    let resolve = Engine.unit_resolve s.engine in
    if tracing then begin
      let uretire = Engine.unit_retire s.engine in
      probe.Bisa_obs.Probe.occupancy ~cycle:uretire
        ~ops:(Engine.occupancy s.engine);
      probe.Bisa_obs.Probe.unit_retire ~dispatch ~resolve ~retire:uretire
        ~ops:nops ~committed:(not squashed)
    end;
    s.next_fetch <- max (!fc + 1) (dispatch - cfg.decode_depth + 1);
    if squashed then begin
      m.squashed_blocks <- m.squashed_blocks + 1;
      m.squashed_ops <- m.squashed_ops + nops;
      m.fault_squash_redirects <- m.fault_squash_redirects + 1;
      m.mispredicts <- m.mispredicts + 1;
      s.next_fetch <- max s.next_fetch (resolve + cfg.redirect_penalty);
      if tracing then begin
        probe.Bisa_obs.Probe.squash ~cycle:resolve ~block ~ops:nops;
        probe.Bisa_obs.Probe.redirect ~cycle:resolve ~until:s.next_fetch
          ~cause:Bisa_obs.Probe.Fault_squash
      end;
      s.forced <- true;
      (* The wrongly-fetched variant invalidates the in-flight prediction
         chain. *)
      s.p_block <- -1
    end
    else begin
      m.retired_ops <- m.retired_ops + nops;
      m.retired_blocks <- m.retired_blocks + 1;
      Bisa_base.Stats.Histogram.add m.block_sizes nops;
      (* Train on committed transitions. *)
      match cfg.predictor with
      | Config.Real ->
        if s.last_committed >= 0 then
          Block_pred.update s.pred ~block:s.last_committed ~actual:block;
        s.last_committed <- block;
        (* Injected BTB corruption: smash the widened entry's slots with a
           random block id.  The fetch guard in [step] re-checks every
           slot against the required variant group, so a corrupt slot is
           at worst a misprediction. *)
        (match s.inj with
        | Some i when Bisa_uarch.Inject.corrupt_btb i ->
          Block_pred.corrupt_btb s.pred ~block
            ~value:(Bisa_uarch.Inject.rand_int i (Array.length prog.blocks))
        | _ -> ());
        let predicted = Block_pred.predict_id s.pred block in
        (* Injected forced misprediction: drop the prediction so the next
           fetch pays the redirect path. *)
        s.p_pred <-
          (match s.inj with
          | Some i when Bisa_uarch.Inject.flip_direction i -> -1
          | _ -> predicted);
        s.p_block <- block;
        s.p_resolve <- resolve;
        s.p_dir <- dir
      | Config.Perfect -> ()
    end
  end

(* One front-end iteration: choose the block to fetch (predicted or
   forced), execute it, and account its timing.  Returns false once the
   machine has halted. *)
let step s =
  let cfg = s.cfg and m = s.m and prog = s.prog and probe = s.probe in
  if not s.running then false
  else if Block_exec.halted s.exec then begin
    s.running <- false;
    false
  end
  else begin
    let req = Block_exec.required s.exec in
    (* Decide what to fetch and when. *)
    let fetch_block =
      if s.forced then begin
        s.forced <- false;
        req
      end
      else if cfg.predictor = Config.Perfect || s.p_block < 0 then req
      else begin
        let p = s.p_pred in
        let correct =
          p >= 0 && (p = req || Block_prog.in_group prog ~rep:req p)
        in
        if s.tracing then probe.Bisa_obs.Probe.predict ~pc:s.p_block ~correct;
        if correct then p
        else begin
          (* Direction-level misprediction: redirect at trap
             resolution.  The refetch uses the deeper counters and BTB
             slots within the now-known direction, not blindly the
             representative (the hardware knows the direction once the
             trap resolves). *)
          m.mispredicts <- m.mispredicts + 1;
          s.next_fetch <- max s.next_fetch (s.p_resolve + cfg.redirect_penalty);
          if s.tracing then
            probe.Bisa_obs.Probe.redirect ~cycle:s.p_resolve
              ~until:s.next_fetch ~cause:Bisa_obs.Probe.Mispredict;
          if s.p_dir >= 0 then begin
            match
              Block_pred.predict_given_direction s.pred s.p_block
                ~taken:(s.p_dir = 1)
            with
            | Some v when v = req || Block_prog.in_group prog ~rep:req v -> v
            | _ -> req
          end
          else req
        end
      end
    in
    (* Both backends evolve the same [Block_exec.t] record; the compiled
       one is stepped in place (no step record, no fresh address array). *)
    (match s.cexec with
    | Some ce -> begin
      let module C = Bisa_sim.Compile.Block in
      match C.step_into ~fetch:fetch_block ce with
      | -1 -> s.running <- false
      | rc ->
        account s ~block:(C.last_block ce) ~ops_executed:(C.last_ops ce)
          ~squashed:(rc = 1) ~mem_addrs:(C.last_addrs ce) ~dir:(C.last_dir ce)
    end
    | None -> begin
      match Block_exec.step ~fetch:fetch_block s.exec with
      | None -> s.running <- false
      | Some step ->
        account s ~block:step.block ~ops_executed:step.ops_executed
          ~squashed:step.squashed ~mem_addrs:step.mem_addrs
          ~dir:
            (match step.dir_taken with
            | None -> -1
            | Some taken -> if taken then 1 else 0)
    end);
    s.running
  end

let ops s = Block_exec.dyn_ops s.exec

let set_out_cap s n = Block_exec.set_out_cap s.exec n

let finish s =
  while step s do
    ()
  done;
  let m = s.m in
  m.cycles <- Engine.last_retire s.engine;
  (match s.icache with
  | Some c ->
    m.icache_accesses <- Cache.accesses c;
    m.icache_misses <- Cache.misses c
  | None -> ());
  (match Engine.dcache s.engine with
  | Some c ->
    m.dcache_accesses <- Cache.accesses c;
    m.dcache_misses <- Cache.misses c
  | None -> ());
  Engine.release s.engine;
  (m, Block_exec.output s.exec)

(* Checkpointing: everything the loop carries between [step]s.  The
   program, predecode tables and configuration are NOT serialized — the
   snapshot header binds them by hash and [restore] requires a session
   built from the same inputs. *)
let save s w =
  let module W = Bisa_base.Codec.W in
  W.section w "block_session";
  W.int w s.next_fetch;
  W.bool w s.running;
  W.bool w s.forced;
  (* The flattened prediction scalars serialize in the original
     option-tuple encoding, so snapshots stay byte-compatible across the
     representation change. *)
  W.option w
    (fun w () ->
      W.int w s.p_block;
      W.int w s.p_resolve;
      W.option w W.int (if s.p_pred < 0 then None else Some s.p_pred);
      W.option w W.bool (if s.p_dir < 0 then None else Some (s.p_dir = 1)))
    (if s.p_block < 0 then None else Some ());
  W.option w W.int
    (if s.last_committed < 0 then None else Some s.last_committed);
  Block_exec.save s.exec w;
  Engine.save s.engine w;
  W.option w (fun w c -> Cache.save c w) s.icache;
  Block_pred.save s.pred w;
  W.option w (fun w i -> Bisa_uarch.Inject.save i w) s.inj;
  Metrics.save s.m w

let restore s r =
  let module R = Bisa_base.Codec.R in
  R.section r "block_session";
  s.next_fetch <- R.int r;
  s.running <- R.bool r;
  s.forced <- R.bool r;
  (match
     R.option r (fun r ->
         let pblock = R.int r in
         let resolve = R.int r in
         let predicted = R.option r R.int in
         let dir_taken = R.option r R.bool in
         (pblock, resolve, predicted, dir_taken))
   with
  | None -> s.p_block <- -1
  | Some (pblock, resolve, predicted, dir_taken) ->
    s.p_block <- pblock;
    s.p_resolve <- resolve;
    s.p_pred <- (match predicted with None -> -1 | Some p -> p);
    s.p_dir <-
      (match dir_taken with
      | None -> -1
      | Some taken -> if taken then 1 else 0));
  s.last_committed <- (match R.option r R.int with None -> -1 | Some p -> p);
  Block_exec.load s.exec r;
  Engine.load s.engine r;
  let opt_side name saved live f =
    match (saved, live) with
    | true, Some x -> f x
    | false, None -> ()
    | _ -> invalid_arg ("Block_pipeline.restore: " ^ name ^ " presence mismatch")
  in
  opt_side "icache" (R.bool r) s.icache (fun c -> Cache.load c r);
  Block_pred.load s.pred r;
  opt_side "injector" (R.bool r) s.inj (fun i -> Bisa_uarch.Inject.load i r);
  Metrics.load s.m r
