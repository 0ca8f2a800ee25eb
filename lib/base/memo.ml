(* One table lock guards the bindings, every cell's state and the fill
   order; it is held only to find, install or settle a cell, never
   across a computation.  Waiters sleep on their cell's condition
   (paired with the table lock), so settling one key wakes only its own
   waiters. *)

type 'v state = Busy | Ready of 'v | Failed of exn * Printexc.raw_backtrace
type 'v cell = { mutable state : 'v state; settled : Condition.t }

type ('k, 'v) t = {
  lock : Mutex.t;
  table : ('k, 'v cell) Hashtbl.t;
  cap : int option;
  order : 'k Queue.t;  (* filled keys, oldest first; only kept under a cap *)
}

let create ?cap () =
  (match cap with
  | Some n when n < 1 -> invalid_arg "Memo.create: cap must be positive"
  | _ -> ());
  { lock = Mutex.create (); table = Hashtbl.create 16; cap; order = Queue.create () }

(* Under the lock: record [k] as filled and evict past the cap.  Only
   filled keys enter [order], and a filled binding leaves the table only
   here, so [order] is exactly the filled keys in fill order. *)
let note_filled t k =
  match t.cap with
  | None -> ()
  | Some cap ->
    Queue.push k t.order;
    if Queue.length t.order > cap then Hashtbl.remove t.table (Queue.pop t.order)

let settle t k cell state =
  Mutex.lock t.lock;
  cell.state <- state;
  (match state with
  | Ready _ -> note_filled t k
  | Failed _ -> Hashtbl.remove t.table k
  | Busy -> ());
  Condition.broadcast cell.settled;
  Mutex.unlock t.lock

let find_or_compute t k f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some cell ->
    let rec wait () =
      match cell.state with
      | Busy ->
        Condition.wait cell.settled t.lock;
        wait ()
      | Ready v ->
        Mutex.unlock t.lock;
        v
      | Failed (e, bt) ->
        Mutex.unlock t.lock;
        Printexc.raise_with_backtrace e bt
    in
    wait ()
  | None -> (
    let cell = { state = Busy; settled = Condition.create () } in
    Hashtbl.add t.table k cell;
    Mutex.unlock t.lock;
    match f () with
    | v ->
      settle t k cell (Ready v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle t k cell (Failed (e, bt));
      Printexc.raise_with_backtrace e bt)

let find t k =
  Mutex.lock t.lock;
  let v =
    match Hashtbl.find_opt t.table k with
    | Some { state = Ready v; _ } -> Some v
    | Some { state = Busy | Failed _; _ } | None -> None
  in
  Mutex.unlock t.lock;
  v

let insert t k v =
  Mutex.lock t.lock;
  let fresh = not (Hashtbl.mem t.table k) in
  if fresh then begin
    Hashtbl.add t.table k { state = Ready v; settled = Condition.create () };
    note_filled t k
  end;
  Mutex.unlock t.lock;
  fresh

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n
