"""repro: reproduction of "Cosmological Simulations using Grid Middleware".

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (engine, resources, network, RNG).
``repro.platform``
    Grid'5000 testbed model: machines, topology, NFS.
``repro.core``
    The DIET middleware reimplementation: profiles, SeDs, agents, client,
    GridRPC facade, scheduling (default + plug-in), deployment, tracing.
``repro.ramses``
    A working cosmological N-body code: PM gravity, KDK leapfrog,
    Peano-Hilbert domain decomposition, snapshot I/O.
``repro.grafic``
    Gaussian-random-field initial conditions, single- and multi-level.
``repro.galics``
    HaloMaker (FoF), TreeMaker (merger trees), GalaxyMaker (SAM).
``repro.services``
    The ramsesZoom1/ramsesZoom2 DIET services, the calibrated performance
    model and the full two-part campaign of §5.
``repro.experiments``
    One module per figure/table of the paper's evaluation.
"""

__version__ = "1.0.0"

__all__ = ["sim", "platform", "core", "ramses", "grafic", "galics",
           "services", "experiments", "__version__"]
