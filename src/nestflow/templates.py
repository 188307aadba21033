"""Prompt text for the competitive-coding flows.

These strings are wire format: feedback loops, trace replay and the
scripted fixtures all depend on their exact bytes. Edit only with the
golden tests open.
"""

_PROBLEM_SECTIONS = (
    "# Problem statement\n"
    "{{problem_description}}\n"
    "\n"
    "# Input description\n"
    "{{input_description}}\n"
    "\n"
    "# Output description\n"
    "{{output_description}}\n"
    "\n"
    "{{io_examples_and_explanation}}\n"
)

CODE_SYSTEM = (
    "Your goal is to provide executable Python code that solves a competitive programming "
    "problem. The code should correctly handle all corner cases in order to pass the hidden "
    "test cases, which are used to evaluate the correctness of the solution.\n"
    "\n"
    "The user will specify the problem by providing you with:\n"
    "  - the problem statement\n"
    "  - input description\n"
    "  - output description\n"
    "  - example test cases\n"
    "  - (optional) explanation of the test cases\n"
    "\n"
    "The user will provide you with a task and an output format that you will strictly follow."
)

CODE_QUERY = (
    _PROBLEM_SECTIONS
    + "\n"
    + "\n"
    "The input should be read from the standard input and the output should be passed to "
    "the standard output.\n"
    "Return Python code that solves the problem. Reply in the following format:\n"
    "```python\n"
    "{{code_placeholder}}\n"
    "```"
)

CODE_HUMAN = "{{query}}"

# Fixed critic reply driving self-reflection on the last proposed code.
REFLECTION_FIXED_REPLY = (
    "Consider the problem statement and the last proposed solution. Are you sure that the "
    "solution is provided in the requested format, and crucially, solves the problem?\n"
    "If that is not the case, provide the corrected version of the code in the following format:\n"
    "```python\n"
    "{{python_code}}\n"
    "```\n"
    "otherwise, reply:\n"
    "\"Final answer.\""
)

COLLAB_HUMAN = (
    "# Feedback on the last proposed solution\n"
    "{{code_feedback}}\n"
    "\n"
    "\n"
    "Consider the original problem statement, the last proposed solution and the provided "
    "feedback. Does the solution need to be updated? If so, provide the corrected version of "
    "the code in the following format:\n"
    "```python\n"
    "{{code_placeholder}}\n"
    "```\n"
    "otherwise, reply:\n"
    "\"Final answer.\""
)

CRITIC_SYSTEM = (
    "Your goal is to identify potential issues with a competitive programming solution attempt.\n"
    "\n"
    "The user will specify the problem by providing you with:\n"
    "  - the problem statement\n"
    "  - input description\n"
    "  - output description\n"
    "  - example test cases\n"
    "  - (optional) explanation of the test cases\n"
    "  - a Python solution attempt\n"
    "\n"
    "Crucially, your goal is to correctly identify potential issues with the solution attempt, "
    "and not to provide the code implementation yourself.\n"
    "The user will provide you with a task and an output format that you will strictly follow."
)

CRITIC_QUERY = (
    _PROBLEM_SECTIONS
    + "\n"
    "# Python solution attempt:\n"
    "```python\n"
    "{{code}}\n"
    "```\n"
    "\n"
    "\n"
    "Consider the problem statement and the solution attempt. Are there any issues with the "
    "proposed solution or it is correct? Explain your reasoning very concisely, and do not "
    "provide code."
)

DEBUG_HUMAN = (
    "{{testing_results_summary}}\n"
    "\n"
    "\n"
    "Consider the problem statement, the last proposed solution, and its issue. Provide a "
    "corrected version of the code that solves the original problem and resolves the issue, "
    "without any explanation, in the following format:\n"
    "```python\n"
    "{{code_placeholder}}\n"
    "```"
)

DEBUG_COLLAB_CRITIC_SYSTEM = (
    "Your goal is to identify the issues with an incorrect competitive programming solution "
    "attempt.\n"
    "\n"
    "The user will specify the problem by providing you with:\n"
    "  - the problem statement\n"
    "  - input description\n"
    "  - output description\n"
    "  - example test cases\n"
    "  - (optional) explanation of the test cases\n"
    "  - an incorrect Python solution attempt and a description of its issue\n"
    "\n"
    "Crucially, your goal is to consider all aspects of the problem and pinpoint the issues "
    "with the solution attempt, and not to provide the code implementation yourself.\n"
    "Some aspects to consider: Is the input correctly parsed? Is the output correctly "
    "formatted? Are the corner cases correctly handled? Is there a logical mistake with the "
    "algorithm itself?\n"
    "Use the code execution results provided in the issue description to guide your "
    "reasoning/debugging."
)

DEBUG_COLLAB_CRITIC_QUERY = (
    _PROBLEM_SECTIONS
    + "\n"
    "# Solution attempt to be fixed\n"
    "```python\n"
    "{{code}}\n"
    "```\n"
    "\n"
    "{{testing_results_summary}}\n"
    "\n"
    "\n"
    "Consider the problem statement, the solution attempt and the issue. Why is the solution "
    "attempt incorrect? How should it be fixed? Explain your reasoning very concisely, and do "
    "not provide code."
)

PLAN_SYSTEM = (
    "Your goal is to provide a high-level conceptual solution that, if implemented, will "
    "solve a given competitive programming problem.\n"
    "\n"
    "The user will specify the problem by providing you with:\n"
    "  - the problem statement\n"
    "  - input description\n"
    "  - output description\n"
    "  - example test cases\n"
    "  - (optional) explanation of the test cases\n"
    "\n"
    "The proposed algorithm should be computationally efficient, logically correct and handle "
    "all corner cases.\n"
    "\n"
    "The user will provide you with a task and an output format that you will strictly follow."
)

PLAN_QUERY = (
    _PROBLEM_SECTIONS
    + "\n"
    + "\n"
    "Return a high-level conceptual solution that would solve the problem. Be very concise, "
    "and do not provide code.\n"
    "Reply in the following format:\n"
    "# Conceptual solution\n"
    "{{plan_placeholder}}"
)

PLAN_HUMAN = "{{query}}"

# Plan-side feedback prompts mirror the code-side ones above with
# conceptual-solution wording; the plan loops reuse them the same way.
PLAN_REFLECTION_FIXED_REPLY = (
    "Consider the problem statement and the last proposed conceptual solution. Are you sure "
    "that the conceptual solution is provided in the requested format, and crucially, would "
    "solve the problem?\n"
    "If that is not the case, provide the corrected version of the conceptual solution in the "
    "following format:\n"
    "# Conceptual solution\n"
    "{{plan_placeholder}}\n"
    "otherwise, reply:\n"
    "\"Final answer.\""
)

PLAN_COLLAB_HUMAN = (
    "# Feedback on the last proposed conceptual solution\n"
    "{{plan_feedback}}\n"
    "\n"
    "\n"
    "Consider the original problem statement, the last proposed conceptual solution and the "
    "provided feedback. Does the conceptual solution need to be updated? If so, provide the "
    "corrected version of the conceptual solution in the following format:\n"
    "# Conceptual solution\n"
    "{{plan_placeholder}}\n"
    "otherwise, reply:\n"
    "\"Final answer.\""
)

PLAN_CRITIC_SYSTEM = (
    "Your goal is to identify potential issues with a high-level conceptual solution for a "
    "competitive programming problem.\n"
    "\n"
    "The user will specify the problem by providing you with:\n"
    "  - the problem statement\n"
    "  - input description\n"
    "  - output description\n"
    "  - example test cases\n"
    "  - (optional) explanation of the test cases\n"
    "  - a conceptual solution attempt\n"
    "\n"
    "Crucially, your goal is to correctly identify potential issues with the conceptual "
    "solution, and not to provide a solution yourself.\n"
    "The user will provide you with a task and an output format that you will strictly follow."
)

PLAN_CRITIC_QUERY = (
    _PROBLEM_SECTIONS
    + "\n"
    "# Conceptual solution attempt:\n"
    "{{plan}}\n"
    "\n"
    "\n"
    "Consider the problem statement and the conceptual solution attempt. Are there any issues "
    "with the proposed conceptual solution or it is correct? Explain your reasoning very "
    "concisely, and do not provide code."
)

# Appended to the code query when an upstream flow supplies a plan.
PLAN_SECTION = "\n\n# Conceptual solution\n{{plan}}"
