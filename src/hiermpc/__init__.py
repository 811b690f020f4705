"""Two-rate hierarchical MPC for interconnected linear systems.

Layers:
    lti        interconnected discrete-time models
    reduction  modal order reduction with DC-gain matching
    sets       one ball and one ellipsoid class, RPI and terminal sets
    solver     in-house QP on those sets (exact active-set step,
               certificate) / simplex LP
    highlevel  slow-rate reduced-order tube controller
    lowlevel   fast-rate decentralized correction controllers
    analysis   small-gain constants, radius tuning, certificates
    thermal    two-apartment benchmark plant
    harness    offline design pipeline, closed loop, traces, CLI
"""

__version__ = "0.1.0"
