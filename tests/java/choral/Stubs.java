package choral;

import java.lang.annotation.*;
import choral.Channels.*;

/** What projected units use of the Choral runtime besides its channels:
 * Unit, the test kit and the annotation of a selection method. Only
 * signatures; nothing runs. */
public final class Stubs {
    public static final class Unit {
        public static final Unit id = new Unit();
        public static Unit id(Object... effects) { return id; }
    }

    @Retention(RetentionPolicy.RUNTIME) @Target(ElementType.METHOD)
    public @interface SelectionMethod { }

    @Retention(RetentionPolicy.RUNTIME) @Target(ElementType.METHOD)
    public @interface Test { }

    public static final class Assert {
        public static void assertTrue(String message, Boolean condition) { }
    }

    public static final class TestUtils_A {
        public static SymChannel_A<Object> newLocalChannel(String key, Unit other) { return null; }
    }

    public static final class TestUtils_B {
        public static SymChannel_B<Object> newLocalChannel(Unit other, String key) { return null; }
    }
}
