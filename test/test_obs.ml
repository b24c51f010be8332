(* The observability subsystem: registry semantics, histogram bucket
   boundaries, Prometheus exposition, chrome-trace JSON. *)

module Obs = Wdl_obs.Obs
module Prometheus = Wdl_obs.Prometheus
module Chrome_trace = Wdl_obs.Chrome_trace
open Check

let check_string msg = Alcotest.check Alcotest.string msg

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let registry_tests =
  [
    tc "get-or-create returns the same counter" (fun () ->
        let r = Obs.create () in
        let c1 = Obs.counter ~registry:r "a_total" in
        Obs.inc c1;
        let c2 = Obs.counter ~registry:r "a_total" in
        Obs.inc ~by:4 c2;
        check_int "shared" 5 (Obs.counter_value c1));
    tc "labels distinguish series, order does not" (fun () ->
        let r = Obs.create () in
        let c1 = Obs.counter ~registry:r ~labels:[ ("a", "1"); ("b", "2") ] "m" in
        let c2 = Obs.counter ~registry:r ~labels:[ ("b", "2"); ("a", "1") ] "m" in
        let c3 = Obs.counter ~registry:r ~labels:[ ("a", "9") ] "m" in
        Obs.inc c1;
        check_int "normalized same series" 1 (Obs.counter_value c2);
        check_int "different labels" 0 (Obs.counter_value c3));
    tc "kind clash raises" (fun () ->
        let r = Obs.create () in
        ignore (Obs.counter ~registry:r "m");
        Alcotest.check_raises "gauge on counter name"
          (Invalid_argument "Obs: metric m already registered with another kind")
          (fun () -> ignore (Obs.gauge ~registry:r "m")));
    tc "invalid names are rejected" (fun () ->
        let r = Obs.create () in
        List.iter
          (fun bad ->
            match Obs.counter ~registry:r bad with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "accepted %S" bad)
          [ ""; "9lives"; "has space"; "dash-ed" ]);
    tc "gauge set/add" (fun () ->
        let r = Obs.create () in
        let g = Obs.gauge ~registry:r "g" in
        Obs.set g 2.5;
        Obs.add g 0.5;
        Alcotest.check (Alcotest.float 1e-9) "value" 3.0 (Obs.gauge_value g));
    tc "callback replaces on same name+labels, read samples it" (fun () ->
        let r = Obs.create () in
        Obs.on_collect ~registry:r ~kind:`Counter "cb_total" (fun () -> 1.);
        Obs.on_collect ~registry:r ~kind:`Counter "cb_total" (fun () -> 7.);
        check_bool "read" (Obs.read ~registry:r "cb_total" = Some 7.);
        check_int "one series"
          (List.length
             (List.filter
                (fun s -> s.Obs.s_name = "cb_total")
                (Obs.collect ~registry:r ())))
          1);
    tc "raising callback collects as NaN" (fun () ->
        let r = Obs.create () in
        Obs.on_collect ~registry:r ~kind:`Gauge "boom" (fun () ->
            failwith "boom");
        match Obs.collect ~registry:r () with
        | [ { Obs.s_value = `Value v; _ } ] -> check_bool "nan" (Float.is_nan v)
        | _ -> Alcotest.fail "expected one sample");
    tc "clear drops families; get-or-create revives them" (fun () ->
        let r = Obs.create () in
        let c = Obs.counter ~registry:r "c_total" in
        Obs.inc c;
        Obs.clear r;
        check_int "empty" 0 (List.length (Obs.collect ~registry:r ()));
        let c' = Obs.counter ~registry:r "c_total" in
        check_int "fresh" 0 (Obs.counter_value c'));
    tc "read_one defaults to zero" (fun () ->
        let r = Obs.create () in
        check_bool "absent" (Obs.read_one ~registry:r "nope" = 0.));
  ]

let histogram_tests =
  [
    tc "bucket boundaries use le semantics" (fun () ->
        let r = Obs.create () in
        let h = Obs.histogram ~registry:r ~buckets:[| 1.; 5.; 10. |] "h" in
        (* exactly on a bound lands in that bucket; just above spills *)
        List.iter (Obs.observe h) [ 1.0; 1.0001; 5.0; 10.0; 10.0001 ];
        match Obs.collect ~registry:r () with
        | [ { Obs.s_value = `Histogram (cum, sum, total); _ } ] ->
          check_int "total" 5 total;
          Alcotest.check (Alcotest.float 1e-6) "sum" 27.0002 sum;
          let counts = Array.map snd cum in
          (* cumulative: le=1 -> 1, le=5 -> 3, le=10 -> 4, +Inf -> 5 *)
          check_bool "cumulative counts"
            (counts = [| 1; 3; 4; 5 |]);
          check_bool "last bound is +Inf" (fst cum.(3) = infinity)
        | _ -> Alcotest.fail "expected one histogram sample");
    tc "observations below the first bound land in the first bucket"
      (fun () ->
        let r = Obs.create () in
        let h = Obs.histogram ~registry:r ~buckets:[| 10.; 20. |] "h" in
        Obs.observe h (-5.);
        Obs.observe h 0.;
        match Obs.collect ~registry:r () with
        | [ { Obs.s_value = `Histogram (cum, _, _); _ } ] ->
          check_int "first bucket" 2 (snd cum.(0))
        | _ -> Alcotest.fail "expected histogram");
    tc "non-ascending buckets rejected" (fun () ->
        let r = Obs.create () in
        match Obs.histogram ~registry:r ~buckets:[| 5.; 5. |] "h" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "accepted non-ascending bounds");
    tc "time observes even on exception" (fun () ->
        let r = Obs.create () in
        let h = Obs.histogram ~registry:r "h" in
        (try Obs.time h (fun () -> failwith "boom") with Failure _ -> ());
        check_int "count" 1 (Obs.histogram_count h);
        check_bool "nonnegative" (Obs.histogram_sum h >= 0.));
  ]

let prometheus_tests =
  [
    tc "label values escape backslash, quote, newline" (fun () ->
        check_string "escaped" {|a\\b\"c\nd|}
          (Prometheus.escape_label_value "a\\b\"c\nd"));
    tc "help escapes backslash and newline but not quotes" (fun () ->
        check_string "escaped" {|say "hi"\\\n|}
          (Prometheus.escape_help "say \"hi\"\\\n"));
    tc "exposition renders counters, gauges and histograms" (fun () ->
        let r = Obs.create () in
        Obs.inc ~by:3
          (Obs.counter ~registry:r ~help:"a counter"
             ~labels:[ ("peer", "p\"1") ] "t_total");
        Obs.set (Obs.gauge ~registry:r "t_gauge") 1.5;
        Obs.observe (Obs.histogram ~registry:r ~buckets:[| 1.; 2. |] "t_h") 1.5;
        let text = Prometheus.expose ~registry:r () in
        List.iter
          (fun needle -> check_bool needle (contains text needle))
          [
            "# HELP t_total a counter";
            "# TYPE t_total counter";
            {|t_total{peer="p\"1"} 3|};
            "# TYPE t_gauge gauge";
            "t_gauge 1.5";
            "# TYPE t_h histogram";
            {|t_h_bucket{le="1"} 0|};
            {|t_h_bucket{le="2"} 1|};
            {|t_h_bucket{le="+Inf"} 1|};
            "t_h_sum 1.5";
            "t_h_count 1";
          ]);
    tc "every line ends in newline; content type pinned" (fun () ->
        let r = Obs.create () in
        ignore (Obs.counter ~registry:r "x_total");
        let text = Prometheus.expose ~registry:r () in
        check_bool "trailing newline"
          (text <> "" && text.[String.length text - 1] = '\n');
        check_string "content type" "text/plain; version=0.0.4"
          Prometheus.content_type);
  ]

let chrome_tests =
  [
    tc "to_json renders events with instant scope" (fun () ->
        let events =
          [
            { Chrome_trace.name = "stage"; cat = "eval"; ph = "B"; ts = 1.5;
              pid = 0; tid = 2; args = [ ("peer", "p") ] };
            { Chrome_trace.name = "x\"y"; cat = "engine"; ph = "i"; ts = 2.;
              pid = 0; tid = 2; args = [] };
          ]
        in
        let json = Chrome_trace.to_json events in
        List.iter
          (fun needle -> check_bool needle (contains json needle))
          [
            {|{"traceEvents":[|};
            {|"name":"stage"|};
            {|"ph":"B"|};
            {|"args":{"peer":"p"}|};
            {|"name":"x\"y"|};
            {|"ph":"i","ts":2.0,"pid":0,"tid":2|};
            {|"s":"t"|};
          ]);
    tc "escape handles control characters" (fun () ->
        check_string "escaped" "a\\u0001b\\tc"
          (Chrome_trace.escape "a\001b\tc"));
  ]

let engine_tests =
  [
    tc "a system run populates the default registry" (fun () ->
        Obs.clear Obs.default;
        let sys = Webdamlog.System.create () in
        let p = Webdamlog.System.add_peer sys "obs_p" in
        (match
           Webdamlog.Peer.load_string p
             "int t@obs_p(x);\nn@obs_p(1);\nt@obs_p($x) :- n@obs_p($x);"
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (match Webdamlog.System.run sys with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        check_bool "rounds counted"
          (Obs.read_one "wdl_system_rounds_total" > 0.);
        check_bool "per-peer derivations"
          (Obs.read_one ~labels:[ ("peer", "obs_p") ]
             "wdl_peer_derivations_total"
          > 0.);
        check_bool "stage histogram observed"
          (Obs.read_one ~labels:[ ("peer", "obs_p") ]
             "wdl_eval_stage_duration_microseconds"
          > 0.);
        check_bool "netstats re-exported"
          (Obs.read ~labels:[ ("transport", "inmem") ] "wdl_net_sent_total"
          <> None);
        Obs.clear Obs.default);
  ]

let suite =
  registry_tests @ histogram_tests @ prometheus_tests @ chrome_tests
  @ engine_tests
