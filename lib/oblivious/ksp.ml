module Yen = Sso_graph.Yen

let routing ~k g =
  if k <= 0 then invalid_arg "Ksp.routing: k must be positive";
  let generate s t =
    let paths = Yen.k_shortest g ~k s t in
    let module Obs = Sso_obs.Obs in
    if Obs.tracing () then
      Obs.event "ksp.generate"
        ~attrs:
          [
            ("s", Sso_obs.Trace.Int s);
            ("t", Sso_obs.Trace.Int t);
            ("paths", Sso_obs.Trace.Int (List.length paths));
            ("k", Sso_obs.Trace.Int k);
          ];
    List.map (fun p -> (1.0, p)) paths
  in
  Oblivious.make ~name:(Printf.sprintf "ksp-%d" k) g generate
