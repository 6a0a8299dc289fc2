"""modeweaver: design and quantum-interference simulation of multimode
waveguide circuits built from grating mode-beamsplitters.
"""

# The permanent algorithm behind every transition amplitude (see fock.permanent).
PERMANENT_BACKEND = "glynn"

__version__ = "0.1.0"

__all__ = ["PERMANENT_BACKEND", "__version__"]
