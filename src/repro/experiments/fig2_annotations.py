"""Figure 2: example annotation file for a scratchpad configuration.

The paper shows the aiT memory-area annotation generated for one benchmark
at one scratchpad size: the SPM region at one cycle per access, 16-bit
instruction regions, 32-bit literal pools and per-array data regions with
width-dependent waitstates.
"""

from __future__ import annotations

from ..link.linker import link
from ..memory.hierarchy import SystemConfig
from ..wcet.annotations import format_annotations, generate_annotations
from .common import workflow_for

SPM_SIZE = 512


def run(fast: bool = False) -> dict:
    workflow = workflow_for("g721")
    config = SystemConfig.scratchpad(SPM_SIZE)
    allocation = workflow.allocate(config)
    image = link(workflow.program, spm_size=SPM_SIZE,
                 spm_objects=allocation.objects)
    annotations = generate_annotations(image, config)
    text = ("Figure 2: memory-area annotation for G.721 with a "
            f"{SPM_SIZE}-byte scratchpad\n\n")
    text += format_annotations(annotations)
    rows = [{
        "areas": len(annotations.areas),
        "loop_bounds": len(annotations.loop_bounds),
        "access_ranges": len(annotations.accesses),
    }]
    return {"name": "fig2", "rows": rows, "text": text,
            "annotations": annotations}
