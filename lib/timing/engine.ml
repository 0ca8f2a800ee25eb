module Reg = Bisa_isa.Reg

(* Functional-unit issue calendar: per-cycle slot counters in a tagged
   ring.  In-flight issue activity spans far less than the ring, so a tag
   mismatch simply means the slot is from a dead cycle. *)
let ring_bits = 15
let ring_size = 1 lsl ring_bits
let ring_mask = ring_size - 1

type t = {
  cfg : Config.t;
  fu_count : int;  (** [cfg.fu_count], hoisted out of the inner loop *)
  reg_ready : int array;
  fu_count_at : int array;
  fu_tag : int array;
  (* Store-completion map (addr -> completion of last committed store):
     open-addressed with linear probing, power-of-two capacity, key -1 =
     empty.  Addresses are byte offsets >= 0 and mostly sequential, so
     identity hashing probes O(1). *)
  mutable sm_key : int array;
  mutable sm_val : int array;
  mutable sm_n : int;
  mutable sm_mask : int;
  (* Per-unit completion scratch: [comp.(k)] is the completion time of
     slot [lo + k] of the unit in flight.  Pre-scheduled [use_def] links
     index it directly, so there is no per-unit register overlay to clear
     — dead entries are simply never read. *)
  mutable comp : int array;
  (* Per-unit store overlay: a unit holds at most issue-width stores, so a
     linear-scan pair of arrays beats any hashing. *)
  mutable ls_addr : int array;
  mutable ls_time : int array;
  mutable ls_n : int;
  (* Retirement window as a ring of (retire_time, op_count), oldest first;
     capacity is always a power of two. *)
  mutable win_retire : int array;
  mutable win_count : int array;
  mutable win_mask : int;
  mutable win_head : int;
  mutable win_len : int;
  mutable window_ops : int;
  mutable last_retire_time : int;
  (* Results of the most recent [run_unit], read through accessors — the
     hot path returns nothing so it allocates nothing. *)
  mutable u_resolve : int;
  mutable u_retire : int;
  dcache : Bisa_uarch.Cache.t option;
}

let sm_init_cap = 8192

(* An engine's big arrays — the issue calendar (2 x [ring_size] words)
   and the store map, which grows by doubling to a workload's store
   footprint — are allocated directly in the major heap, 0.8-2.9 MB per
   run.  Grid cells on one domain run one after another, so [release]
   parks a finished engine's arrays here and the next [create] on the
   same domain resets and adopts them.  Capacity is invisible to the
   store map's contents, so timing does not depend on which arrays an
   engine got. *)
type spare = {
  mutable s_count : int array;
  mutable s_tag : int array;
  mutable s_key : int array;  (* [[||]] when the domain has no spare *)
  mutable s_val : int array;
}

(* One record per domain, updated in place: parking and adopting arrays
   allocates nothing. *)
let spare : spare Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { s_count = [||]; s_tag = [||]; s_key = [||]; s_val = [||] })

let create (cfg : Config.t) =
  let sp = Domain.DLS.get spare in
  let reuse = Array.length sp.s_key > 0 in
  let fu_count_at = if reuse then sp.s_count else Array.make ring_size 0 in
  let fu_tag = if reuse then sp.s_tag else Array.make ring_size (-1) in
  let sm_key = if reuse then sp.s_key else Array.make sm_init_cap (-1) in
  let sm_val = if reuse then sp.s_val else Array.make sm_init_cap 0 in
  if reuse then begin
    Array.fill fu_count_at 0 ring_size 0;
    Array.fill fu_tag 0 ring_size (-1);
    Array.fill sm_key 0 (Array.length sm_key) (-1);
    sp.s_count <- [||];
    sp.s_tag <- [||];
    sp.s_key <- [||];
    sp.s_val <- [||]
  end;
  {
    cfg;
    fu_count = cfg.fu_count;
    reg_ready = Array.make Reg.flat_count 0;
    fu_count_at;
    fu_tag;
    sm_key;
    sm_val;
    sm_n = 0;
    sm_mask = Array.length sm_key - 1;
    comp = Array.make 64 0;
    ls_addr = Array.make 32 0;
    ls_time = Array.make 32 0;
    ls_n = 0;
    win_retire = Array.make 64 0;
    win_count = Array.make 64 0;
    win_mask = 63;
    win_head = 0;
    win_len = 0;
    window_ops = 0;
    last_retire_time = 0;
    u_resolve = 0;
    u_retire = 0;
    dcache = Option.map Bisa_uarch.Cache.create cfg.dcache;
  }

let dcache t = t.dcache

(* Park the big arrays for the domain's next engine, keeping the spare
   with the larger store map.  [sm_n = -1] marks a released engine, so a
   second call can never hand the same arrays to two engines. *)
let release t =
  if t.sm_n >= 0 then begin
    let sp = Domain.DLS.get spare in
    if Array.length sp.s_key < Array.length t.sm_key then begin
      sp.s_count <- t.fu_count_at;
      sp.s_tag <- t.fu_tag;
      sp.s_key <- t.sm_key;
      sp.s_val <- t.sm_val
    end;
    t.sm_n <- -1
  end

(* Store map: [sm_find] yields 0 for absent addresses (the map only ever
   holds positive completion times), [sm_bump] keeps the max. *)

let sm_find t addr =
  let mask = t.sm_mask in
  let keys = t.sm_key in
  let i = ref (addr land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> addr && !k >= 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = addr then Array.unsafe_get t.sm_val !i else 0

let sm_grow t =
  let old_key = t.sm_key and old_val = t.sm_val in
  let cap = 2 * Array.length old_key in
  let mask = cap - 1 in
  let keys = Array.make cap (-1) and vals = Array.make cap 0 in
  for i = 0 to Array.length old_key - 1 do
    let k = old_key.(i) in
    if k >= 0 then begin
      let j = ref (k land mask) in
      while keys.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      keys.(!j) <- k;
      vals.(!j) <- old_val.(i)
    end
  done;
  t.sm_key <- keys;
  t.sm_val <- vals;
  t.sm_mask <- mask

let rec sm_bump t addr v =
  let mask = t.sm_mask in
  let keys = t.sm_key in
  let i = ref (addr land mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k <> addr && !k >= 0 do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  if !k = addr then begin
    if v > Array.unsafe_get t.sm_val !i then Array.unsafe_set t.sm_val !i v
  end
  else if 2 * (t.sm_n + 1) > Array.length keys then begin
    sm_grow t;
    sm_bump t addr v
  end
  else begin
    Array.unsafe_set keys !i addr;
    Array.unsafe_set t.sm_val !i v;
    t.sm_n <- t.sm_n + 1
  end

let win_pop t =
  t.window_ops <- t.window_ops - t.win_count.(t.win_head);
  t.win_head <- (t.win_head + 1) land t.win_mask;
  t.win_len <- t.win_len - 1

let win_push t retire count =
  let cap = Array.length t.win_retire in
  if t.win_len = cap then begin
    let nr = Array.make (2 * cap) 0 and nc = Array.make (2 * cap) 0 in
    for i = 0 to t.win_len - 1 do
      let j = (t.win_head + i) land t.win_mask in
      nr.(i) <- t.win_retire.(j);
      nc.(i) <- t.win_count.(j)
    done;
    t.win_retire <- nr;
    t.win_count <- nc;
    t.win_mask <- (2 * cap) - 1;
    t.win_head <- 0
  end;
  let i = (t.win_head + t.win_len) land t.win_mask in
  t.win_retire.(i) <- retire;
  t.win_count.(i) <- count;
  t.win_len <- t.win_len + 1

let admit t ~want ~op_count =
  let time = ref want in
  while t.win_len > 0 && t.win_retire.(t.win_head) <= !time do
    win_pop t
  done;
  (* Wait for the oldest unit to retire until there is room.  An empty
     window that still does not fit means the unit alone exceeds capacity
     (cannot happen with issue-width blocks); admit it regardless. *)
  while
    t.win_len > 0
    && (t.win_len >= t.cfg.window_blocks
       || t.window_ops + op_count > t.cfg.window_ops)
  do
    let oldest = t.win_retire.(t.win_head) in
    if oldest > !time then time := oldest;
    while t.win_len > 0 && t.win_retire.(t.win_head) <= !time do
      win_pop t
    done
  done;
  !time

let grow_ls t =
  let cap = Array.length t.ls_addr in
  let na = Array.make (2 * cap) 0 and nt = Array.make (2 * cap) 0 in
  Array.blit t.ls_addr 0 na 0 cap;
  Array.blit t.ls_time 0 nt 0 cap;
  t.ls_addr <- na;
  t.ls_time <- nt

(* One fetch unit: template slots [lo, lo+len) of [tp] (plus slot [term]
   when [term >= 0]), with the k-th body op's memory address supplied as
   [mem_addrs.(mem_off + k)].

   The body is a pure table walk over the pre-scheduled facts: the packed
   [info] word supplies operand counts, latency and memory kind; a use's
   producer is in flight in this very unit iff [use_def >= lo] (slots of a
   unit are consecutive), in which case its completion is read straight
   out of [comp]; a def publishes to the global scoreboard iff it is the
   unit's last writer, decided by [def_next] falling outside the unit.
   Nothing is recomputed per dynamic op and nothing is allocated.

   Bounds discipline: the slot range, [term] and the [mem_addrs] span are
   validated here once; register indexes were validated at predecode-build
   time; [use_def]/[def_next] entries are slot indexes by construction;
   [comp] is sized to [len] below.  Everything after the entry checks may
   therefore index unsafely. *)
let run_unit t ~dispatch ~commit (tp : Predecode.t) ~lo ~len ~term
    ~(mem_addrs : int array) ~mem_off =
  let nslots = Array.length tp.Predecode.info in
  if
    lo < 0 || len < 0
    || lo + len > nslots
    || term >= nslots
    || mem_off < 0
    || mem_off + len > Array.length mem_addrs
  then invalid_arg "Engine.run_unit: slot range out of bounds";
  if len > Array.length t.comp then begin
    let cap = ref (Array.length t.comp) in
    while !cap < len do
      cap := 2 * !cap
    done;
    t.comp <- Array.make !cap 0
  end;
  t.ls_n <- 0;
  let info_tab = tp.Predecode.info in
  let use_def = tp.Predecode.use_def in
  let def_next = tp.Predecode.def_next in
  let regs = tp.Predecode.regs in
  let comp = t.comp in
  let reg_ready = t.reg_ready in
  let fu_tag = t.fu_tag and fu_count_at = t.fu_count_at in
  let fu_count = t.fu_count in
  let dmin = dispatch + 1 in
  (* Highest slot this unit executes: its defs shadow earlier in-unit defs
     of the same register up to here. *)
  let hi = if term >= 0 then term else lo + len - 1 in
  let resolve = ref dispatch and retire = ref dispatch in
  let has_mem =
    Array.unsafe_get tp.Predecode.mem_prefix (lo + len)
    > Array.unsafe_get tp.Predecode.mem_prefix lo
  in
  if not has_mem then
    (* Fast path: no memory op in the unit — no store-map probes, no
       per-op address test, no dcache. *)
    for k = 0 to len - 1 do
      let info = Array.unsafe_get info_tab (lo + k) in
      let off = info lsr Predecode.info_off_shift in
      let nd = (info lsr Predecode.info_nd_shift) land Predecode.info_cnt_mask in
      let nu = (info lsr Predecode.info_nu_shift) land Predecode.info_cnt_mask in
      let ready = ref dispatch in
      let ulo = off + nd in
      for j = ulo to ulo + nu - 1 do
        let d = Array.unsafe_get use_def j in
        let v =
          if d >= lo then Array.unsafe_get comp (d - lo)
          else Array.unsafe_get reg_ready (Array.unsafe_get regs j)
        in
        if v > !ready then ready := v
      done;
      let c = ref (if !ready > dmin then !ready else dmin) in
      let ci = ref (!c land ring_mask) in
      while
        Array.unsafe_get fu_tag !ci = !c
        && Array.unsafe_get fu_count_at !ci >= fu_count
      do
        incr c;
        ci := !c land ring_mask
      done;
      if Array.unsafe_get fu_tag !ci = !c then
        Array.unsafe_set fu_count_at !ci (Array.unsafe_get fu_count_at !ci + 1)
      else begin
        Array.unsafe_set fu_tag !ci !c;
        Array.unsafe_set fu_count_at !ci 1
      end;
      let complete =
        !c + ((info lsr Predecode.info_lat_shift) land 15)
      in
      Array.unsafe_set comp k complete;
      if commit then
        for j = off to ulo - 1 do
          let dn = Array.unsafe_get def_next j in
          if dn < 0 || dn > hi then begin
            let r = Array.unsafe_get regs j in
            if complete > Array.unsafe_get reg_ready r then
              Array.unsafe_set reg_ready r complete
          end
        done;
      resolve := complete;
      if complete > !retire then retire := complete
    done
  else
    for k = 0 to len - 1 do
      let info = Array.unsafe_get info_tab (lo + k) in
      let off = info lsr Predecode.info_off_shift in
      let nd = (info lsr Predecode.info_nd_shift) land Predecode.info_cnt_mask in
      let nu = (info lsr Predecode.info_nu_shift) land Predecode.info_cnt_mask in
      let ready = ref dispatch in
      let ulo = off + nd in
      for j = ulo to ulo + nu - 1 do
        let d = Array.unsafe_get use_def j in
        let v =
          if d >= lo then Array.unsafe_get comp (d - lo)
          else Array.unsafe_get reg_ready (Array.unsafe_get regs j)
        in
        if v > !ready then ready := v
      done;
      let addr = Array.unsafe_get mem_addrs (mem_off + k) in
      let kind = if addr >= 0 then info land Predecode.info_mem_mask else 0 in
      if kind <> 0 then begin
        (* Memory ordering: wait for the last store to this address, unit-
           local stores (store-to-load forwarding) included. *)
        let sd = ref (sm_find t addr) in
        for i = 0 to t.ls_n - 1 do
          if t.ls_addr.(i) = addr && t.ls_time.(i) > !sd then sd := t.ls_time.(i)
        done;
        if !sd > !ready then ready := !sd
      end;
      let c = ref (if !ready > dmin then !ready else dmin) in
      let ci = ref (!c land ring_mask) in
      while
        Array.unsafe_get fu_tag !ci = !c
        && Array.unsafe_get fu_count_at !ci >= fu_count
      do
        incr c;
        ci := !c land ring_mask
      done;
      if Array.unsafe_get fu_tag !ci = !c then
        Array.unsafe_set fu_count_at !ci (Array.unsafe_get fu_count_at !ci + 1)
      else begin
        Array.unsafe_set fu_tag !ci !c;
        Array.unsafe_set fu_count_at !ci 1
      end;
      let issue = !c in
      let lat = (info lsr Predecode.info_lat_shift) land 15 in
      let lat =
        if kind = 1 then begin
          let hit =
            match t.dcache with
            | Some c -> Bisa_uarch.Cache.access c addr
            | None -> true
          in
          if hit then lat else lat + t.cfg.l2_latency
        end
        else lat
      in
      let complete = issue + lat in
      Array.unsafe_set comp k complete;
      if commit then
        for j = off to ulo - 1 do
          let dn = Array.unsafe_get def_next j in
          if dn < 0 || dn > hi then begin
            let r = Array.unsafe_get regs j in
            if complete > Array.unsafe_get reg_ready r then
              Array.unsafe_set reg_ready r complete
          end
        done;
      if kind = 2 then begin
        let found = ref false in
        let i = ref 0 in
        while (not !found) && !i < t.ls_n do
          if t.ls_addr.(!i) = addr then begin
            t.ls_time.(!i) <- complete;
            found := true
          end;
          incr i
        done;
        if not !found then begin
          if t.ls_n = Array.length t.ls_addr then grow_ls t;
          t.ls_addr.(t.ls_n) <- addr;
          t.ls_time.(t.ls_n) <- complete;
          t.ls_n <- t.ls_n + 1
        end
      end;
      resolve := complete;
      if complete > !retire then retire := complete
    done;
  (* Terminator slot: never a memory op (the table classifies terminators
     mem-none, and direct callers' terminators carried no address either).
     Its producers must be in the executed body, so the in-flight test
     also bounds the [comp] index. *)
  if term >= 0 then begin
    let info = Array.unsafe_get info_tab term in
    let off = info lsr Predecode.info_off_shift in
    let nd = (info lsr Predecode.info_nd_shift) land Predecode.info_cnt_mask in
    let nu = (info lsr Predecode.info_nu_shift) land Predecode.info_cnt_mask in
    let ready = ref dispatch in
    let ulo = off + nd in
    for j = ulo to ulo + nu - 1 do
      let d = Array.unsafe_get use_def j in
      let v =
        if d >= lo && d - lo < len then Array.unsafe_get comp (d - lo)
        else Array.unsafe_get reg_ready (Array.unsafe_get regs j)
      in
      if v > !ready then ready := v
    done;
    let c = ref (if !ready > dmin then !ready else dmin) in
    let ci = ref (!c land ring_mask) in
    while
      Array.unsafe_get fu_tag !ci = !c
      && Array.unsafe_get fu_count_at !ci >= fu_count
    do
      incr c;
      ci := !c land ring_mask
    done;
    if Array.unsafe_get fu_tag !ci = !c then
      Array.unsafe_set fu_count_at !ci (Array.unsafe_get fu_count_at !ci + 1)
    else begin
      Array.unsafe_set fu_tag !ci !c;
      Array.unsafe_set fu_count_at !ci 1
    end;
    let complete = !c + ((info lsr Predecode.info_lat_shift) land 15) in
    if commit then
      for j = off to ulo - 1 do
        let dn = Array.unsafe_get def_next j in
        if dn < 0 || dn > hi then begin
          let r = Array.unsafe_get regs j in
          if complete > Array.unsafe_get reg_ready r then
            Array.unsafe_set reg_ready r complete
        end
      done;
    resolve := complete;
    if complete > !retire then retire := complete
  end;
  if commit then
    for i = 0 to t.ls_n - 1 do
      sm_bump t t.ls_addr.(i) t.ls_time.(i)
    done;
  let nops = if term >= 0 then len + 1 else len in
  (* In-order retirement: monotonic times. *)
  let retire_time =
    if !retire > t.last_retire_time then !retire else t.last_retire_time
  in
  t.last_retire_time <- retire_time;
  win_push t retire_time nops;
  t.window_ops <- t.window_ops + nops;
  t.u_resolve <- !resolve;
  t.u_retire <- retire_time

let unit_resolve t = t.u_resolve
let unit_retire t = t.u_retire
let last_retire t = t.last_retire_time
let occupancy t = t.window_ops

(* Checkpointing.  Per-unit scratch ([comp], the store-overlay arrays)
   lives only inside [run_unit], so it needs no serialization — and the
   pre-scheduled template is derived state, rebuilt from the program on
   load.  Everything that carries timing state across units is captured:
   register-ready times, the issue calendar, the store-completion map
   (sorted by address for deterministic bytes), the retirement window, and
   the data cache. *)
let save t w =
  let module W = Bisa_base.Codec.W in
  W.section w "engine";
  W.int_array w t.reg_ready;
  W.int_array w t.fu_count_at;
  W.int_array w t.fu_tag;
  let pairs = ref [] in
  for i = 0 to Array.length t.sm_key - 1 do
    if t.sm_key.(i) >= 0 then pairs := (t.sm_key.(i), t.sm_val.(i)) :: !pairs
  done;
  let pairs = List.sort compare !pairs in
  W.int w (List.length pairs);
  List.iter
    (fun (k, v) ->
      W.int w k;
      W.int w v)
    pairs;
  W.int w t.win_len;
  for i = 0 to t.win_len - 1 do
    let j = (t.win_head + i) land t.win_mask in
    W.int w t.win_retire.(j);
    W.int w t.win_count.(j)
  done;
  W.int w t.window_ops;
  W.int w t.last_retire_time;
  match t.dcache with
  | None -> W.bool w false
  | Some c ->
    W.bool w true;
    Bisa_uarch.Cache.save c w

let load t r =
  let module R = Bisa_base.Codec.R in
  R.section r "engine";
  let blit_exact src dst name =
    if Array.length src <> Array.length dst then
      invalid_arg ("Engine.load: " ^ name ^ " size mismatch");
    Array.blit src 0 dst 0 (Array.length dst)
  in
  blit_exact (R.int_array r) t.reg_ready "reg_ready";
  blit_exact (R.int_array r) t.fu_count_at "fu_count_at";
  blit_exact (R.int_array r) t.fu_tag "fu_tag";
  Array.fill t.sm_key 0 (Array.length t.sm_key) (-1);
  t.sm_n <- 0;
  let n = R.int r in
  for _ = 1 to n do
    let k = R.int r in
    let v = R.int r in
    sm_bump t k v
  done;
  let len = R.int r in
  if len > Array.length t.win_retire then begin
    let cap = ref (Array.length t.win_retire) in
    while !cap < len do
      cap := 2 * !cap
    done;
    t.win_retire <- Array.make !cap 0;
    t.win_count <- Array.make !cap 0;
    t.win_mask <- !cap - 1
  end;
  t.win_head <- 0;
  t.win_len <- len;
  for i = 0 to len - 1 do
    t.win_retire.(i) <- R.int r;
    t.win_count.(i) <- R.int r
  done;
  t.window_ops <- R.int r;
  t.last_retire_time <- R.int r;
  (match (R.bool r, t.dcache) with
  | true, Some c -> Bisa_uarch.Cache.load c r
  | false, None -> ()
  | _ -> invalid_arg "Engine.load: dcache presence mismatch");
  (* Reset per-unit scratch: it is dead between units by construction. *)
  t.ls_n <- 0;
  t.u_resolve <- 0;
  t.u_retire <- 0
