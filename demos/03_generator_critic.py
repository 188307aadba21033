# The generator-critic loop
#
# A generator_critic flow alternates two children: the generator
# proposes, the critic responds, and the critic's output is mapped back
# into the generator's next input. The loop stops when the generator's
# output satisfies stop_on or when max_rounds is reached; the final
# round never runs the critic, so over a whole run
#
#     generator calls = rounds used
#     critic calls    = rounds used - 1

from nestflow.backends import ScriptedBackend
from nestflow.core import ROUNDS_USED_KEY, RunContext, create_flow, package_input, run
from nestflow.trace import TraceSink

loop_config = {
    "name": "refine",
    "kind": "generator_critic",
    "input_keys": ["topic"],
    "output_keys": ["completion"],
    "params": {
        "max_rounds": 4,
        # The default stop predicate looks for "Final answer." in the
        # generator's completion.
        "feedback_mapping": {"reply": "feedback"},
        "children": [
            {"name": "writer", "kind": "llm",
             "input_keys": ["topic"], "output_keys": ["completion"],
             "params": {"system_message": "Improve the draft each round.",
                        "query_message": "Draft something about {{topic}}.",
                        "human_message": "{{feedback}}"}},
            {"name": "editor", "kind": "fixed_reply",
             "params": {"reply": "Tighten the second sentence.",
                        "output_key": "reply"}},
        ],
    },
}

# The scripted backend stands in for the generator's model: two drafts,
# then a reply containing the termination needle.

backend = ScriptedBackend(responses=[
    "A first, rambling draft.",
    "A tighter second draft.",
    "The final draft. Final answer.",
])

sink = TraceSink()
ctx = RunContext(backends={"default": backend}, trace=sink)
out = run(create_flow(loop_config), package_input({"topic": "brevity"}), ctx)

print("completion:", out.payload["completion"])
print("rounds used:", out.payload[ROUNDS_USED_KEY])

# The trace confirms the call-count law: three generator starts, two
# critic starts.

starts = [e.instance_id.split("#")[0] for e in sink.events if e.kind == "flow_start"]
print("writer calls:", starts.count("writer"))
print("editor calls:", starts.count("editor"))

# With max_rounds=1 the loop degenerates to the bare generator: the
# critic never runs and the visible payload is identical to running the
# writer child on its own.

single = dict(loop_config, params=dict(loop_config["params"], max_rounds=1))
ctx = RunContext(backends={"default": ScriptedBackend(responses=["Only draft."])})
out = run(create_flow(single), package_input({"topic": "brevity"}), ctx)
visible = {k: v for k, v in out.payload.items() if not k.startswith("_")}
print("single-round payload:", visible)
