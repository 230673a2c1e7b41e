(* Purpose-kernel model in action.

   The paper's §2 splits the machine kernel into IO-driver kernels, a
   general-purpose kernel (NPD) and the rgpdOS kernel (PD), dynamically
   partitioning CPU between them.  This example submits a mixed job
   stream, shows that PD jobs never land on the general-purpose kernel,
   then repartitions CPU toward the rgpdOS kernel and shows the PD
   backlog draining faster — while the use-after-free demonstration from
   the paper's Fig. 2 leaks on the process-centric baseline.

   Run with: dune exec examples/purpose_kernels.exe *)

module Clock = Rgpdos_util.Clock
module Resource = Rgpdos_kernel.Resource
module Subkernel = Rgpdos_kernel.Subkernel
module Scheduler = Rgpdos_kernel.Scheduler
module Syscall = Rgpdos_kernel.Syscall
module Ipc = Rgpdos_kernel.Ipc
module Process_model = Rgpdos_baseline.Process_model

let run_stream ~rgpd_mcpu ~general_mcpu =
  let clock = Clock.create () in
  let resources = Resource.create ~cpu_millis:8_000 ~mem_pages:65_536 in
  let claim owner cpu =
    Result.get_ok (Resource.claim resources ~owner ~cpu_millis:cpu ~mem_pages:4_096)
  in
  let kernels =
    [
      Subkernel.make ~id:"io-pd" ~kind:(Subkernel.Io_driver "pd-nvme")
        ~partition:(claim "io-pd" 500) ~policy:Syscall.Policy.allow_all ();
      Subkernel.make ~id:"general" ~kind:Subkernel.General_purpose
        ~partition:(claim "general" general_mcpu) ~policy:Syscall.Policy.allow_all ();
      Subkernel.make ~id:"rgpdos" ~kind:Subkernel.Rgpd
        ~partition:(claim "rgpdos" rgpd_mcpu) ~policy:Syscall.Policy.builtin_policy ();
    ]
  in
  let sched = Scheduler.create ~clock ~kernels in
  for i = 0 to 39 do
    let data_class =
      match i mod 4 with
      | 0 | 2 -> Scheduler.Pd
      | 1 -> Scheduler.Npd
      | _ -> Scheduler.Io "pd-nvme"
    in
    ignore
      (Scheduler.submit sched
         {
           Scheduler.job_id = Printf.sprintf "job-%02d" i;
           data_class;
           work = 3_000_000 (* 3 ms of single-core work *);
         })
  done;
  Scheduler.run_until_idle sched ();
  (Clock.now clock, Scheduler.kernel_busy_time sched)

let () =
  print_endline "== purpose kernels ==";
  print_endline "40 jobs (20 PD + 10 NPD + 10 IO), 3ms single-core work each\n";
  List.iter
    (fun (rgpd, general) ->
      let makespan, busy = run_stream ~rgpd_mcpu:rgpd ~general_mcpu:general in
      Printf.printf "partition rgpd=%4dmcpu general=%4dmcpu:\n" rgpd general;
      Printf.printf "  makespan %.2f ms\n" (float_of_int makespan /. 1e6);
      List.iter
        (fun (id, ns) ->
          Printf.printf "  %-8s busy %.2f ms\n" id (float_of_int ns /. 1e6))
        busy)
    [ (1_500, 6_000); (6_000, 1_500) ];

  (* a PD job cannot even be submitted to a machine without a PD kernel *)
  let clock = Clock.create () in
  let resources = Resource.create ~cpu_millis:8_000 ~mem_pages:1_024 in
  let part =
    Result.get_ok
      (Resource.claim resources ~owner:"general" ~cpu_millis:8_000 ~mem_pages:1_024)
  in
  let general_only =
    Scheduler.create ~clock
      ~kernels:
        [
          Subkernel.make ~id:"general" ~kind:Subkernel.General_purpose
            ~partition:part ~policy:Syscall.Policy.allow_all ();
        ]
  in
  (match
     Scheduler.submit general_only
       { Scheduler.job_id = "pd-job"; data_class = Scheduler.Pd; work = 1 }
   with
  | Error msg -> Printf.printf "\nPD job on a PD-less machine: refused (%s)\n" msg
  | Ok () ->
      print_endline "\nBUG: PD job accepted on the general kernel";
      exit 1);

  (* kernels cooperate over IPC channels *)
  let clock = Clock.create () in
  let ch = Ipc.create ~clock ~name:"rgpdos->io-pd" () in
  ignore (Ipc.send ch "read block 42");
  ignore (Ipc.send ch "write block 43");
  Printf.printf "\nIPC channel %s: %d messages queued, %d ns simulated\n"
    (Ipc.name ch) (Ipc.length ch) (Clock.now clock);

  (* and the Fig. 2 counterpoint: one address space, one use-after-free *)
  print_endline "\nprocess-centric baseline (Fig. 2):";
  let heap = Process_model.create ~slots:4 in
  let pd1 = Process_model.alloc heap ~owner:"purpose1" ~data:"pd1 (consented to f1)" in
  Process_model.free heap pd1;
  let _pd2 = Process_model.alloc heap ~owner:"purpose2" ~data:"pd2 (NOT consented to f1)" in
  (match Process_model.read heap pd1 with
  | Some (owner, data) ->
      Printf.printf "  f1's dangling pointer reads %S owned by %s\n" data owner
  | None -> ());
  Printf.printf "  cross-purpose leaks: %d (rgpdOS structurally prevents this)\n"
    (Process_model.cross_owner_reads heap)
