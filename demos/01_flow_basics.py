# Flows, messages, and composition
#
# A flow is a unit of work with private state. It receives a message,
# reads the payload keys it declared as inputs, and emits a message
# whose payload is the input overlaid with the keys it produced. Flows
# never share state; composition is entirely message passing.

from nestflow.backends import ScriptedBackend
from nestflow.core import RunContext, create_flow, package_input, run
from nestflow.trace import TraceSink

# Flow configs are plain data. A fixed_reply flow ignores its input and
# emits one configured key, which makes it handy for wiring demos.

echo = create_flow({
    "name": "echo",
    "kind": "fixed_reply",
    "params": {"reply": "hello from the echo flow", "output_key": "note"},
})

ctx = RunContext()
out = run(echo, package_input({"topic": "greetings"}))
print("payload after one flow:", out.payload)

# The input key survived: output payload = input payload + new keys.

# A sequential flow feeds each child the previous child's output. The
# children below both contribute a key, so the final payload carries
# the original input plus both replies.

pipeline = create_flow({
    "name": "pipeline",
    "kind": "sequential",
    "input_keys": ["topic"],
    "output_keys": ["note", "verdict"],
    "params": {"children": [
        {"name": "draft", "kind": "fixed_reply",
         "params": {"reply": "a first draft", "output_key": "note"}},
        {"name": "review", "kind": "fixed_reply",
         "params": {"reply": "looks good", "output_key": "verdict"}},
    ]},
})

out = run(pipeline, package_input({"topic": "composition"}))
print("payload after the pipeline:", out.payload)

# LLM-backed flows talk to a backend from the run context. A scripted
# backend replays canned responses, so this demo is fully offline.

poet = create_flow({
    "name": "poet",
    "kind": "llm",
    "input_keys": ["topic"],
    "output_keys": ["completion"],
    "params": {
        "system_message": "You reply with a single short line.",
        "query_message": "Write one line about {{topic}}.",
    },
})

backend = ScriptedBackend(responses=["Messages carry everything that matters."])
sink = TraceSink()
ctx = RunContext(backends={"default": backend}, trace=sink)
out = run(poet, package_input({"topic": "isolation"}), ctx)
print("completion:", out.payload["completion"])

# Every run is traced. The sink recorded the flow lifecycle and the
# backend exchange, which is what record/replay builds on.

print("trace kinds:", [event.kind for event in sink.events])
