"""Excavator activity, safety, and productivity analytics over perception streams."""

__version__ = "0.1.0"

from .activity import (
    ActionClassifier,
    ActionState,
    ActionTimeline,
    ActivityConfig,
    MotionWindow,
    TimelineSegment,
    build_timeline,
    is_still,
    step_state,
)
from .config import SiteConfig, load_site_config
from .errors import ConfigError, SitewatchError, StreamFormatError
from .geometry import (
    LocationLabel,
    Region,
    RegionLabel,
    bbox_iou,
    classify_location,
    point_in_polygon,
    point_in_region,
    probe_point,
)
from .metrics import (
    ScoredMatch,
    TemporalSegment,
    average_precision_11pt,
    keypoint_ap,
    mean_ap,
    oks,
    segment_ap,
    temporal_iou,
)
from .pipeline import AnalysisResult, StreamAnalyzer, analyze_file, analyze_stream
from .productivity import (
    CycleRecord,
    ProductivityReport,
    build_report,
    compute_productivity,
    detect_cycles,
)
from .safety import (
    Alert,
    PauseSignal,
    SafetyMonitor,
    check_collision,
    locate_machines,
    update_pause,
)
from .simulator import (
    DurationRange,
    GroundTruth,
    MachineSpec,
    NoiseModel,
    ScenarioConfig,
    Simulation,
    generate,
    inject_collision,
    productivity_benchmark_config,
)
from .streams import (
    Detection,
    MachineClass,
    PerceptionFrame,
    Pose,
    StreamHeader,
    dedupe_frame,
    parse_stream,
    read_stream,
    serialize_frame,
    serialize_header,
    write_stream,
)
from .tracking import IouTracker, Track
