(* Program sets, the reference outputs they are checked against, and the
   load chain every program of the toolchain workload goes through.  Each
   call into a layer of the program is bracketed by a span named after
   the layer. *)

module W = Bisa_workloads.Workloads
module C = Bisa_compiler.Compiler
module E = Bisa_isa.Encode
module V = Bisa_verify.Verify
module P = Bisa_timing.Pipeline
module Out = Bisa_sim.Output
module Enlarge = Bisa_backend.Enlarge
open Util

type prog = {
  label : string;
  src : string;
  libs : string list;
  enlarge : Enlarge.config;
}

let surrogate ?scale ?(variant = ("default", Enlarge.default_config)) (w : W.t) =
  {
    label = (if fst variant = "default" then w.name else w.name ^ "/" ^ fst variant);
    src = W.source ?scale w;
    libs = w.library_funcs;
    enlarge = snd variant;
  }

(* The enlargement configurations of the ablation study (DESIGN.md
   section 4.2): they span static footprints from the unenlarged code to
   the library-enlarged one. *)
let enlargement_variants =
  let d = Enlarge.default_config in
  [
    ("default", d);
    ("no-enlarge", { d with enabled = false });
    ("1-fault", { d with max_faults = 1 });
    ("8-op-limit", { d with max_ops = 8 });
    ("merge-backedges", { d with merge_across_back_edges = true });
    ("enlarge-libs", { d with enlarge_libraries = true });
  ]

(* Generated programs derive from the workload seed alone. *)
let generated ~seed n =
  List.init n (fun i ->
      let g = Bisa_check.Gen.generate (Bisa_base.Rng.derive seed i) in
      {
        label = Printf.sprintf "gen%d" i;
        src = Bisa_check.Gen.render g;
        libs = [];
        enlarge = Enlarge.default_config;
      })

(* --- reference outputs ----------------------------------------------------- *)

(* The reference interpreter runs the typed source directly, so it is
   independent of the optimizer, both back ends and both executors. *)
let reference p : Out.t =
  let typed, _ = C.frontend ~library_funcs:p.libs p.src in
  let r = Bisa_frontend.Interp.run typed in
  {
    Out.ret = r.ret;
    items =
      List.map
        (function
          | Bisa_frontend.Interp.Oint i -> Out.Oint i | Bisa_frontend.Interp.Oflt f -> Out.Oflt f)
        r.outputs;
  }

(* Memoized by source text: enlargement variants share one reference. *)
let reference_cache : (string, Out.t) Hashtbl.t = Hashtbl.create 64

let reference_of p =
  match Hashtbl.find_opt reference_cache p.src with
  | Some o -> o
  | None ->
    let o = reference p in
    Hashtbl.add reference_cache p.src o;
    o

(* --- the load chain -------------------------------------------------------- *)

type loaded = {
  compiled : C.compiled;
  conv_kb : float;
  block_kb : float;
  conv_code : Bisa_sim.Compile.Conv.code;
  block_code : Bisa_sim.Compile.Block.code;
  conv_tables : Bisa_timing.Predecode.t;
  block_tables : Bisa_timing.Predecode.blocks;
}

exception Rejected of string

(* Encoded image sizes of every distinct program loaded, by label. *)
let sizes : (string, float * float) Hashtbl.t = Hashtbl.create 64

(* Source to runnable code through every toolchain layer: front end,
   full compile, binary encode and decode, static verification of the
   decoded images, predecode and threaded-code compilation. *)
let load p =
  ignore (span "frontend" (fun () -> C.frontend ~library_funcs:p.libs p.src));
  let c = span "compile" (fun () -> C.compile ~enlarge:p.enlarge ~library_funcs:p.libs p.src) in
  let cb, bb = span "encode" (fun () -> (E.conv_to_bytes c.conv, E.block_to_bytes c.block)) in
  let conv, block = span "decode" (fun () -> (E.conv_of_bytes cb, E.block_of_bytes bb)) in
  let diags = span "verify" (fun () -> V.conv_diags conv @ V.block_diags block) in
  if diags <> [] then
    raise (Rejected (p.label ^ ": " ^ Bisa_base.Diag.render (List.hd diags)));
  let conv_tables, block_tables =
    span "predecode" (fun () -> (P.Conv.predecode_trusted conv, P.Block.predecode_trusted block))
  in
  let conv_code, block_code =
    span "sim_compile" (fun () -> (P.Conv.compile_trusted conv, P.Block.compile_trusted block))
  in
  let conv_kb = float_of_int (String.length cb) /. 1024.0
  and block_kb = float_of_int (String.length bb) /. 1024.0 in
  add "load_kb" (conv_kb +. block_kb);
  Hashtbl.replace sizes p.label (conv_kb, block_kb);
  {
    compiled = { c with conv; block };
    conv_kb;
    block_kb;
    conv_code;
    block_code;
    conv_tables;
    block_tables;
  }

(* One functional run per ISA on the threaded code. *)
let run_functional l =
  span "functional" (fun () ->
      ( fst (Bisa_sim.Compile.Conv.run l.conv_code),
        fst (Bisa_sim.Compile.Block.run l.block_code) ))

let conv_artifact l = P.Conv.bundle ~code:l.conv_code ~tables:l.conv_tables l.compiled.conv
let block_artifact l = P.Block.bundle ~code:l.block_code ~tables:l.block_tables l.compiled.block
