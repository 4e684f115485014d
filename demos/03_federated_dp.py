"""
Federated training under a differential-privacy budget
======================================================

Three simulated clients hold disjoint, non-IID shards (split by the
categorical column). Each local step clips per-sample gradients and adds
Gaussian noise; a per-client RDP accountant tracks the spend, and the
noise multiplier is calibrated up front so the budget epsilon = 1 is not
exceeded. Takes ~20 s.
"""

import json
import os
import tempfile

from fedsynth.data import write_csv
from fedsynth.experiment import cmd_generate, cmd_prepare, cmd_train, desk_preset
from fedsynth.fixtures import gaussian_mixture_table

data_dir = tempfile.mkdtemp(prefix="fedsynth_demo_")
real_csv = os.path.join(data_dir, "real.csv")
schema_json = os.path.join(data_dir, "schema.json")
table = gaussian_mixture_table(n_rows=900, seed=7)
write_csv(real_csv, table)
table.schema.save(schema_json)

config = desk_preset(
    dataset=real_csv, schema=schema_json,
    output_dir="demo_runs/federated_dp", n_rows=300,
).replace(**{
    "federation.n_clients": 3,
    "federation.rounds": 15, "federation.local_steps": 10,
    "model.hidden_width": 32, "diffusion.timesteps": 100,
    "dp.epsilon": 1.0,       # per-client budget; sigma is calibrated to it
})

summary = cmd_prepare(config)
print("non-IID shards:", summary["counts"])

manifest = cmd_train(config)
print("rounds completed:", manifest["rounds_completed"],
      " stopped early:", manifest["stopped_early"])
print("epsilon spent per client (budget 1.0):")
for cid, eps in sorted(manifest["epsilons"].items()):
    print("  client %s: %s" % (cid, "not trained" if eps is None else "%.4f" % eps))

# the audit log has one record per (round, selected client)
audit_path = os.path.join(config.resolved_output_dir(), "audit.jsonl")
with open(audit_path) as fh:
    records = [json.loads(line) for line in fh]
last = records[-1]
print("\nlast audit record: round %d, client %d, loss %.4f, "
      "mean grad norm %.3f -> %.3f after clipping, sigma %.2f"
      % (last["round"], last["client"], last["loss"],
         last["grad_norm_pre"], last["grad_norm_post"], last["sigma"]))

syn_csv = cmd_generate(config)
print("\nsynthetic rows written to", syn_csv)
