open Lotto_sim

type spec = {
  name : string;
  share : int;
  arrivals : Arrivals.profile;
  service : Time.t;
  workers : int;
  stubs : int;
  capacity : int;
  shed : Types.shed_policy;
  io_per_req : int;
}

let spec ?(share = 100) ?(service = Time.ms 5) ?(workers = 4) ?(stubs = 64)
    ?(capacity = 32) ?(shed = Types.Reject_new) ?(io_per_req = 0) ~arrivals
    name =
  if share < 1 then invalid_arg "Tenant.spec: share must be >= 1";
  if workers < 1 then invalid_arg "Tenant.spec: workers must be >= 1";
  if stubs < 1 then invalid_arg "Tenant.spec: stubs must be >= 1";
  if io_per_req < 0 then invalid_arg "Tenant.spec: io_per_req must be >= 0";
  { name; share; arrivals; service; workers; stubs; capacity; shed; io_per_req }
