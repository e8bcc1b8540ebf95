package choral;

import java.lang.annotation.*;

/** What projected units use of the Choral runtime: Unit, each side of the
 * prelude's channels, and the test kit. Only signatures; nothing runs. */
public final class Stubs {
    public static final class Unit {
        public static final Unit id = new Unit();
        public static Unit id(Object... effects) { return id; }
    }

    public interface DiDataChannel_A<T> { <S extends T> Unit com(S m); }
    public interface DiDataChannel_B<T> { <S extends T> S com(Unit m); }
    public interface DiSelectChannel_A { <L extends Enum<L>> Unit select(L m); }
    public interface DiSelectChannel_B { <L extends Enum<L>> L select(Unit m); }
    public interface BiDataChannel_A<T, R> extends DiDataChannel_A<T>, DiDataChannel_B<R> { }
    public interface BiDataChannel_B<T, R> extends DiDataChannel_B<T>, DiDataChannel_A<R> { }
    public interface SymDataChannel_A<T> extends BiDataChannel_A<T, T> { }
    public interface SymDataChannel_B<T> extends BiDataChannel_B<T, T> { }
    public interface SymSelectChannel_A extends DiSelectChannel_A, DiSelectChannel_B { }
    public interface SymSelectChannel_B extends DiSelectChannel_B, DiSelectChannel_A { }
    public interface DiChannel_A<T> extends DiDataChannel_A<T>, DiSelectChannel_A { }
    public interface DiChannel_B<T> extends DiDataChannel_B<T>, DiSelectChannel_B { }
    public interface BiChannel_A<T, R>
            extends DiChannel_A<T>, DiChannel_B<R>, BiDataChannel_A<T, R>, SymSelectChannel_A { }
    public interface BiChannel_B<T, R>
            extends DiChannel_B<T>, DiChannel_A<R>, BiDataChannel_B<T, R>, SymSelectChannel_B { }
    public interface SymChannel_A<T> extends BiChannel_A<T, T>, SymDataChannel_A<T> { }
    public interface SymChannel_B<T> extends BiChannel_B<T, T>, SymDataChannel_B<T> { }

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
